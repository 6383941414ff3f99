package main

import (
	"math"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/pyjama"
	"parc751/internal/sched"
)

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are printed by every untraced run, for every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// Kernel-round members: the hand-written kernels (plus ptask quicksort)
// and the parcpar-generated autogen/par kernels, in round order.
var (
	handKernels = []string{"matmul", "jacobi", "md_forces", "fft", "pagerank", "components", "qsort"}
	autoKernels = []string{"matmulflat", "jacobisweep", "forces", "pagerankstep", "componentssweep", "spinsum", "dot"}
	kindNames   = []string{"sort", "textsearch", "pdfsearch", "thumbs", "matmul"}
)

// layerDefs are printed by every traced run, for every workload; a
// metric whose layer the workload does not reach reads 0 (README.md).
var layerDefs = func() []metricDef {
	d := []metricDef{
		{"parcserve.handler_p50_ms", "ms", "lower"},
		{"parcserve.transport_p50_ms", "ms", "lower"},
		{"parcserve.overhead_p50_ms", "ms", "lower"},
		{"parcserve.batch_mean_size", "count", "higher"},
		{"parcserve.batch_timer_flush_ratio", "ratio", "lower"},
		{"parcserve.admitted", "count", "higher"},
		{"parcserve.rejected", "count", "lower"},
		{"parcserve.waiting_max", "count", "lower"},
	}
	for _, k := range kindNames {
		d = append(d, metricDef{"workload.gen_ms." + k, "ms", "lower"})
	}
	for _, k := range kindNames {
		d = append(d, metricDef{"body.compute_ms." + k, "ms", "lower"})
	}
	d = append(d,
		metricDef{"sched.tasks_per_op", "count", "lower"},
		metricDef{"sched.steals_per_op", "count", "lower"},
		metricDef{"sched.steal_hit_ratio", "ratio", "higher"},
		metricDef{"sched.batch_moved_per_op", "count", "lower"},
		metricDef{"sched.parks_per_op", "count", "lower"},
		metricDef{"sched.wakes_per_op", "count", "lower"},
		metricDef{"sched.global_submits_per_op", "count", "lower"},
		metricDef{"sched.submit_wait_p50_us", "us", "lower"},
		metricDef{"sched.submit_wait_p99_us", "us", "lower"},
		metricDef{"pyjama.fork_join_us", "us", "lower"},
		metricDef{"pyjama.barrier_us", "us", "lower"},
		metricDef{"pyjama.chunks_per_loop", "count", "lower"},
		metricDef{"pyjama.barrier_park_ratio", "ratio", "lower"},
	)
	for _, group := range []struct {
		prefix string
		names  []string
	}{{"kernels.", handKernels}, {"autopar.", autoKernels}} {
		for _, k := range group.names {
			d = append(d,
				metricDef{group.prefix + k + ".par_ms", "ms", "lower"},
				metricDef{group.prefix + k + ".seq_ms", "ms", "lower"},
				metricDef{group.prefix + k + ".speedup", "ratio", "higher"})
		}
	}
	return append(d,
		metricDef{"runtime.alloc_kb_per_op", "KiB", "lower"},
		metricDef{"runtime.gc_per_kop", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"host.steal_pct", "%", "lower"},
	)
}()

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measurement is what an untraced run reduces to its end-to-end metrics.
//
// Segment and set-up figures leave out the samples that the hypervisor
// materially stole from (see keptSamples): while it runs other guests on
// this VM's CPUs, a sample measures the neighbours. Steal is read from
// /proc/stat around each sample, so the choice never looks at the metric
// itself. Per-segment figures are reduced by their median; latencies are
// pooled over the kept segments.
type measurement struct {
	setupS     []float64 // s, one per set-up repetition
	setupSteal []float64
	lat        []float64 // ms, one per measured op
	segOps     []int
	segWall    []float64 // s
	segCPU     []float64 // ms of process CPU
	segRSS     []float64 // MiB, each segment's own peak RSS
	segSteal   []float64 // % of host CPU stolen during the segment
	ticks      cpuTicks  // clocks at the current segment's start
	cpu0       time.Duration
	wall0      time.Time
	runPeakMB  float64 // peak RSS over the whole run, set-ups included
	resetFails int     // segments whose peak-RSS mark could not be reset
}

// timeSetup runs one set-up and records its duration and steal.
func (m *measurement) timeSetup(setup func() error) error {
	t0, ticks := time.Now(), readCPUTicks()
	if err := setup(); err != nil {
		return err
	}
	m.setupS = append(m.setupS, time.Since(t0).Seconds())
	m.setupSteal = append(m.setupSteal, stealPct(ticks, readCPUTicks()))
	return nil
}

// stealSlackPct is how far, in percentage points of host CPU, a sample's
// steal may lie above the run's least-stolen sample and still be kept.
// Steal is counted in whole jiffies (a one-second segment on two CPUs is
// about 200), so a few stolen jiffies are not a reason to drop a sample.
const stealSlackPct = 2.0

// keptSamples returns, in sample order, the indices of the samples whose
// steal is within stealSlackPct of the least-stolen one. When that is
// fewer than half of them, it keeps the least-stolen half instead, ties
// included, so on a host that reports no steal every sample is kept.
func keptSamples(steal []float64) []int {
	if len(steal) == 0 {
		return []int{}
	}
	s := sorted(steal)
	cut := max(s[0]+stealSlackPct, s[(len(s)+1)/2-1])
	var idx []int
	for i, v := range steal {
		if v <= cut {
			idx = append(idx, i)
		}
	}
	return idx
}

// startSegment resets the peak-RSS mark and notes the clocks;
// addSegment records the segment's figures against them. The peak so far
// is read before each reset, so runPeakMB misses nothing.
func (m *measurement) startSegment() {
	m.runPeakMB = max(m.runPeakMB, peakRSSMB())
	if !resetPeakRSS() {
		m.resetFails++
	}
	m.ticks, m.cpu0, m.wall0 = readCPUTicks(), cpuTime(), time.Now()
}

func (m *measurement) addSegment(ops int) {
	m.segWall = append(m.segWall, time.Since(m.wall0).Seconds())
	m.segCPU = append(m.segCPU, float64(cpuTime()-m.cpu0)/1e6)
	m.segRSS = append(m.segRSS, peakRSSMB())
	m.segSteal = append(m.segSteal, stealPct(m.ticks, readCPUTicks()))
	m.segOps = append(m.segOps, ops)
}

// segStats are one segment's figures, printed as a diagnostic.
type segStats struct {
	Tput  float64 `json:"tput"`
	CPU   float64 `json:"cpu_ms_per_op"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	RSSMB float64 `json:"rss_mb"`
	Steal float64 `json:"steal_pct"`
}

func (m *measurement) perSegment() []segStats {
	var out []segStats
	at := 0
	for i, ops := range m.segOps {
		lat := sorted(m.lat[at : at+ops])
		at += ops
		out = append(out, segStats{float64(ops) / m.segWall[i], m.segCPU[i] / float64(ops),
			percentile(lat, 0.5), percentile(lat, 0.9), m.segRSS[i], m.segSteal[i]})
	}
	return out
}

func (m *measurement) endToEnd() map[string]float64 {
	segs := m.perSegment()
	starts := make([]int, len(segs)+1)
	for i, ops := range m.segOps {
		starts[i+1] = starts[i] + ops
	}
	var lat, tput, cpu, rss, setup []float64
	for _, i := range keptSamples(m.segSteal) {
		lat = append(lat, m.lat[starts[i]:starts[i+1]]...)
		tput = append(tput, segs[i].Tput)
		cpu = append(cpu, segs[i].CPU)
		rss = append(rss, segs[i].RSSMB)
	}
	for _, i := range keptSamples(m.setupSteal) {
		setup = append(setup, m.setupS[i])
	}
	lat = sorted(lat)
	return map[string]float64{
		"setup_s":        median(setup),
		"p50_ms":         percentile(lat, 0.50),
		"p90_ms":         percentile(lat, 0.90),
		"throughput_ops": median(tput),
		"cpu_ms_per_op":  median(cpu),
		"rss_peak_mb":    median(rss),
	}
}

// schedCounts is the pool-wide sum of a sched.Snapshot's counters, so
// two snapshots can be subtracted.
type schedCounts struct {
	executed, steals, failedSteals, batchMoved, parks, wakes, globalSubmits int64
	wait                                                                    metrics.LatencySnapshot
}

func countsOf(s sched.Snapshot) schedCounts {
	c := schedCounts{executed: s.Executed, globalSubmits: s.GlobalSubmits, wait: s.SubmitLatency}
	for _, w := range s.Workers {
		c.steals += w.Steals
		c.failedSteals += w.FailedSteal
		c.batchMoved += w.BatchMoved
		c.parks += w.Parks
		c.wakes += w.Wakes
	}
	return c
}

// addDelta adds b−a to c.
func (c *schedCounts) addDelta(a, b schedCounts) {
	c.executed += b.executed - a.executed
	c.steals += b.steals - a.steals
	c.failedSteals += b.failedSteals - a.failedSteals
	c.batchMoved += b.batchMoved - a.batchMoved
	c.parks += b.parks - a.parks
	c.wakes += b.wakes - a.wakes
	c.globalSubmits += b.globalSubmits - a.globalSubmits
	for i := range c.wait.Counts {
		c.wait.Counts[i] += b.wait.Counts[i] - a.wait.Counts[i]
	}
	c.wait.Total += b.wait.Total - a.wait.Total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// into writes the sched.* per-layer metrics for ops operations.
func (c schedCounts) into(out map[string]float64, ops int) {
	n := float64(ops)
	out["sched.tasks_per_op"] = ratio(float64(c.executed), n)
	out["sched.steals_per_op"] = ratio(float64(c.steals), n)
	out["sched.steal_hit_ratio"] = ratio(float64(c.steals), float64(c.steals+c.failedSteals))
	out["sched.batch_moved_per_op"] = ratio(float64(c.batchMoved), n)
	out["sched.parks_per_op"] = ratio(float64(c.parks), n)
	out["sched.wakes_per_op"] = ratio(float64(c.wakes), n)
	out["sched.global_submits_per_op"] = ratio(float64(c.globalSubmits), n)
	out["sched.submit_wait_p50_us"] = float64(c.wait.Quantile(0.50)) / 1e3
	out["sched.submit_wait_p99_us"] = float64(c.wait.Quantile(0.99)) / 1e3
}

// regionTally sums Pyjama region stats over the regions a run observed.
type regionTally struct {
	regions, chunks, waits, parks int64
}

// add folds one region; every region the benchmark observes runs one
// worksharing loop.
func (t *regionTally) add(st pyjama.RegionStats) {
	t.regions++
	t.chunks += st.TotalChunks()
	t.parks += st.TotalBarrierParks()
	for _, th := range st.Threads {
		t.waits += th.Barrier.Waits
	}
}

func (t regionTally) into(out map[string]float64) {
	out["pyjama.chunks_per_loop"] = ratio(float64(t.chunks), float64(t.regions))
	out["pyjama.barrier_park_ratio"] = ratio(float64(t.parks), float64(t.waits))
}

// memInto writes the Go runtime layer: bytes allocated and GC cycles per op.
func memInto(out map[string]float64, allocBytes, gcs uint64, ops int) {
	out["runtime.alloc_kb_per_op"] = ratio(float64(allocBytes)/1024, float64(ops))
	out["runtime.gc_per_kop"] = ratio(1000*float64(gcs), float64(ops))
}

// overheadPct is the traced p50 against the untraced p50, in %.
func overheadPct(traced, untraced []float64) float64 {
	u := percentile(sorted(untraced), 0.5)
	t := percentile(sorted(traced), 0.5)
	if u == 0 || math.IsNaN(u) || math.IsNaN(t) {
		return 0
	}
	return 100 * (t - u) / u
}
