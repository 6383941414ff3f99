// Command e2ebench is parc751's end-to-end benchmark. It runs one of
// three closed-loop workloads against the system's public entry points
// and prints every metric by name and unit; the last line of standard
// output is one JSON result object. See README.md for the workloads, the
// metric table and what each per-layer metric should move.
//
//	e2ebench --workload serve-mix --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate,
// traced run of the same plan that prints the per-layer breakdown and
// writes its spans under --out. --workload all runs every workload, each
// in a child process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	clients  int
	out      string
}

// report is one workload run's outcome.
type report struct {
	stamp     stamp
	m         measurement
	layer     map[string]float64
	attempted int
	failed    int
	failures  []string
	notes     []string
	rec       *recorder
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run returns the exit code: 0 for a correct run, 1 when any op failed
// (the result line is still printed), 2 when no result could be made.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", wlMix, "serve-mix, serve-small, kernels or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed plans the same inputs")
	seconds := fs.Int("seconds", 25, "segments to run (each about a second on a 2-CPU host)")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, clients: runtime.NumCPU(), out: *out}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	case cfg.seconds < 2:
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 2")
		return 2
	}
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 2
	}
	res := rep.print(cfg, stdout, stderr)
	if rep.rec != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := rep.rec.write(path, rep.stamp); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*report, error) {
	rep := &report{stamp: newStamp(cfg.workload, cfg.seed, cfg.trace, cfg.clients), layer: map[string]float64{}}
	var err error
	switch cfg.workload {
	case wlMix, wlSmall:
		err = runServe(cfg, rep)
	case wlKernels:
		err = runKernels(cfg, rep)
	default:
		err = fmt.Errorf("unknown workload (want %s or all)", strings.Join(workloads, ", "))
	}
	rep.m.runPeakMB = max(rep.m.runPeakMB, peakRSSMB())
	return rep, err
}

// print writes the human-readable report and returns the result line.
func (rep *report) print(cfg config, stdout, stderr io.Writer) result {
	st, _ := json.Marshal(rep.stamp)
	fmt.Fprintf(stdout, "stamp %s\n", st)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "FAILED %s\n", f)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	e2e := rep.m.endToEnd()
	lat := sorted(rep.m.lat)
	fmt.Fprintf(stdout, "ops attempted=%d failed=%d\n", rep.attempted, rep.failed)
	for _, d := range endToEndDefs {
		fmt.Fprintf(stdout, "%-34s %12.4f %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(stdout, "%-34s %12.4f ms (diagnostic: n=%d, %d beyond, quotable=%v; highest quotable percentile p%g)\n",
		"p99_ms", percentile(lat, 0.99), len(lat), beyond(len(lat), 0.99), tailOK(len(lat), 0.99), 100*highestTail(len(lat)))
	fmt.Fprintf(stdout, "%-34s %12.4f MiB (diagnostic: whole-run VmHWM, set-ups included; rss_peak_mb is the median segment peak)\n",
		"rss_run_peak_mb", rep.m.runPeakMB)
	if n := rep.m.resetFails; n > 0 {
		fmt.Fprintf(stdout, "note: the peak-RSS mark could not be reset (/proc/self/clear_refs) for %d of %d segments; "+
			"those segments report the peak since process start, set-ups included\n", n, len(rep.m.segOps))
	}
	b, _ := json.Marshal(rep.m.perSegment())
	fmt.Fprintf(stdout, "segments %s\n", b)
	fmt.Fprintf(stdout, "setups s=%.4f steal_pct=%.1f (figures leave out samples whose steal is over %g points above the least-stolen one, keeping at least half)\n",
		rep.m.setupS, rep.m.setupSteal, stealSlackPct)
	fmt.Fprintln(stdout, "note: cpu_ms_per_op is the whole process's CPU, the in-process load generator included")
	if cfg.trace {
		fmt.Fprintln(stdout, "note: traced run; end-to-end figures above come from a run that records spans")
		for _, d := range layerDefs {
			if _, ok := rep.layer[d.Name]; !ok {
				rep.layer[d.Name] = 0 // a layer this workload does not reach
			}
		}
		rep.layer["host.steal_pct"] = rep.stamp.StealPct
		for _, d := range layerDefs {
			v := rep.layer[d.Name]
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
			fmt.Fprintf(stdout, "%-34s %12.4f %s\n", d.Name, v, d.Unit)
		}
	} else {
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metric{Value: e2e[d.Name], Unit: d.Unit}
		}
	}
	for name, m := range res.Metrics {
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			fmt.Fprintf(stderr, "FAILED metric %s is not a finite number\n", name)
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
			res.Correct = false
		}
	}
	return res
}

// runAll runs every workload in its own child process (so peak RSS and
// runtime state are per workload), echoes each one's output, and ends
// with a combined result whose metric names are prefixed by workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, wl := range workloads {
		childArgs := append(withoutWorkload(args), "--workload", wl)
		cmd := exec.Command(self, childArgs...)
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		fmt.Fprintf(stdout, "== %s\n%s", wl, outb)
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(stderr, "e2ebench: %s produced no result (%v)\n", wl, err)
			return 2
		}
		if err != nil {
			code = 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[wl+"/"+k] = v
		}
	}
	b, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(b))
	if !all.Correct {
		code = 1
	}
	return code
}

// withoutWorkload drops any --workload/-workload flag from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "workload=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}
