package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestPlanSameSeedSameBytes(t *testing.T) {
	for _, wl := range []string{wlMix, wlSmall} {
		a, err := planServe(wl, 7, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := planServe(wl, 7, 2, 3)
		c, _ := planServe(wl, 8, 2, 3)
		if !bytes.Equal(a.bytes(), b.bytes()) {
			t.Errorf("%s: same seed planned different request lists", wl)
		}
		if bytes.Equal(a.bytes(), c.bytes()) {
			t.Errorf("%s: seeds 7 and 8 planned the same request list", wl)
		}
		if len(a.reqs) != a.segments*a.perSeg {
			t.Errorf("%s: %d requests, want %d segments × %d", wl, len(a.reqs), a.segments, a.perSeg)
		}
	}
}

// Every segment must do the same work: the same multiset of kinds and
// sizes, whatever the seed.
func TestPlanSegmentsHaveOneComposition(t *testing.T) {
	shape := func(list []jobReq) string {
		var s []string
		for _, q := range list {
			s = append(s, q.Kind+":"+strings.Repeat("x", 0)+itoa(q.N))
		}
		sort.Strings(s)
		return strings.Join(s, ",")
	}
	for _, wl := range []string{wlMix, wlSmall} {
		var want string
		for _, seed := range []uint64{1, 2} {
			p, _ := planServe(wl, seed, 2, 3)
			for i := 0; i < p.segments; i++ {
				got := shape(p.segment(i))
				if want == "" {
					want = got
				}
				if got != want {
					t.Fatalf("%s seed %d segment %d has a different composition", wl, seed, i)
				}
			}
		}
	}
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

func TestPlanShapes(t *testing.T) {
	mix, _ := planServe(wlMix, 3, 2, 2)
	seeds := map[string]map[uint64]bool{}
	for _, q := range mix.reqs {
		if seeds[q.Kind] == nil {
			seeds[q.Kind] = map[uint64]bool{}
		}
		seeds[q.Kind][q.Seed] = true
		if q.Kind == "sort" && q.N <= smallMaxN {
			t.Errorf("serve-mix sort of %d elements would take the batched path", q.N)
		}
	}
	for kind, s := range seeds {
		if len(s) != mixPool {
			t.Errorf("serve-mix %s drew %d distinct seeds, want a pool of %d", kind, len(s), mixPool)
		}
	}
	small, _ := planServe(wlSmall, 3, 2, 3)
	distinct := map[uint64]bool{}
	for _, q := range small.reqs {
		if q.Kind != "sort" || q.N < smallMinN || q.N > smallMaxN {
			t.Fatalf("serve-small request %s n=%d outside the batched sort range", q.Kind, q.N)
		}
		distinct[q.Seed] = true
	}
	if len(distinct) != len(small.reqs) {
		t.Errorf("serve-small: %d distinct seeds for %d requests", len(distinct), len(small.reqs))
	}
}

func TestKernelInputsSameSeed(t *testing.T) {
	a, b, c := newKernelInputs(5).digest(), newKernelInputs(5).digest(), newKernelInputs(6).digest()
	if a != b {
		t.Error("same seed built different kernel inputs")
	}
	if a == c {
		t.Error("seeds 5 and 6 built the same kernel inputs")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", 100*c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The tail rule: quote a percentile only with at least ten samples past it.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},   // 10 beyond
		{99, 0.9, false},   // 9 beyond
		{1000, 0.99, true}, // 10 beyond
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10_000, 0.999}, {5000, 0.99}, {150, 0.9}, {50, 0.5}, {5, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{0, 100}
	cases := []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{10, 20}}, 90},
		{[]interval{{10, 20}, {15, 30}}, 80},           // overlap counted once
		{[]interval{{10, 20}, {40, 50}}, 80},           // disjoint
		{[]interval{{-10, 5}, {90, 120}}, 85},          // clipped to the parent
		{[]interval{{200, 300}}, 100},                  // outside
		{[]interval{{0, 100}, {20, 30}}, 0},            // fully covered
		{[]interval{{50, 60}, {10, 20}, {15, 55}}, 50}, // unsorted chain
	}
	for _, c := range cases {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

// A served answer whose checksum differs from the reference is a failed
// op, and the clients open exactly one connection each.
func TestMismatchFailsAndConnectionsAreReused(t *testing.T) {
	rec := newRecorder(0)
	env, err := startServe(2, rec, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	list := []jobReq{newJobReq("sort", 11, 700), newJobReq("sort", 12, 900), newJobReq("matmul", 13, 16), newJobReq("sort", 14, 20_000)}
	ref, err := referencePass(list)
	if err != nil {
		t.Fatal(err)
	}
	ok := &failures{}
	env.runList(list, 0, ref, make([]float64, len(list)), rec, false, ok)
	if ok.n != 0 {
		t.Fatalf("correct references failed: %v", ok.first)
	}
	for k := range ref {
		ref[k]++
	}
	bad := &failures{}
	env.runList(list, 0, ref, nil, rec, false, bad)
	if bad.n != len(list) {
		t.Fatalf("%d of %d mismatched answers counted as failed", bad.n, len(list))
	}
	if d := env.dials.Load(); d > 2 {
		t.Errorf("%d dials for 2 clients over %d requests", d, 2*len(list))
	}
}

func TestKernelRoundDetectsMismatch(t *testing.T) {
	cases := []*kernelCase{
		{name: "a", group: "g", par: func() uint64 { return 1 }, seq: func() uint64 { return 1 }},
		{name: "b", group: "g", par: func() uint64 { return 2 }, seq: func() uint64 { return 3 }},
	}
	if err := prepare(cases); err == nil || !strings.Contains(err.Error(), "g.b") {
		t.Fatalf("prepare accepted par != seq: %v", err)
	}
	cases[1].seq = cases[1].par
	if err := prepare(cases); err != nil {
		t.Fatal(err)
	}
	cases[0].want = 9
	if bad := round(cases, 0, nil); len(bad) != 1 || !strings.Contains(bad[0], "g.a") {
		t.Fatalf("round reported %v, want one g.a mismatch", bad)
	}
}

// BENCHMARK.json must declare exactly the metrics the runs print.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, layerDefs)
}

// A reduced-size run of every workload, traced (which exercises the
// untraced segments too): it must succeed and print every per-layer
// metric on the last line.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "2", "--trace", "1",
				"--out", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			for _, d := range layerDefs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s missing or mis-united: %+v", d.Name, m)
				}
			}
			if len(res.Metrics) != len(layerDefs) {
				t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(layerDefs))
			}
		})
	}
}

func TestKeptSamples(t *testing.T) {
	cases := []struct {
		steal []float64
		want  []int
	}{
		{[]float64{5, 0, 3, 0, 9}, []int{1, 2, 3}},
		{[]float64{0, 1.5, 0.5, 9, 2}, []int{0, 1, 2, 4}}, // a few jiffies are not material
		{[]float64{1, 1}, []int{0, 1}},
		{[]float64{4, 12, 10, 11}, []int{0, 2}}, // at least half is kept
		{[]float64{7}, []int{0}},
		{nil, []int{}},
	}
	for _, c := range cases {
		if got := keptSamples(c.steal); !slices.Equal(got, c.want) {
			t.Fatalf("keptSamples(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

// On a host that reports no steal, every segment and set-up is kept, so
// the late half of the planned work reaches the figures too.
func TestKeptSamplesWithoutSteal(t *testing.T) {
	if got := keptSamples(make([]float64, 25)); len(got) != 25 || got[24] != 24 {
		t.Fatalf("keptSamples(25 zeros) = %v, want all 25", got)
	}
	m := measurement{
		lat:        []float64{1, 1, 5, 5, 9, 9},
		segOps:     []int{2, 2, 2},
		segWall:    []float64{1, 1, 1},
		segCPU:     []float64{2, 2, 2},
		segRSS:     []float64{10, 20, 30},
		segSteal:   []float64{0, 0, 0},
		setupS:     []float64{1, 2, 3, 4},
		setupSteal: []float64{0, 0, 0, 0},
	}
	got := m.endToEnd()
	if got["p90_ms"] != 9 || got["rss_peak_mb"] != 20 || got["setup_s"] != 2.5 {
		t.Fatalf("p90_ms = %g, rss_peak_mb = %g, setup_s = %g; want 9, 20 and 2.5 (every sample kept)",
			got["p90_ms"], got["rss_peak_mb"], got["setup_s"])
	}
}

// A segment or set-up that the hypervisor stole from is left out of
// every end-to-end figure.
func TestEndToEndSkipsStolenSamples(t *testing.T) {
	m := measurement{
		lat:        []float64{1, 1, 1, 100, 100, 100},
		segOps:     []int{3, 3},
		segWall:    []float64{1, 3},
		segCPU:     []float64{3, 30},
		segRSS:     []float64{10, 20},
		segSteal:   []float64{0, 50},
		setupS:     []float64{1, 2, 9},
		setupSteal: []float64{0, 1, 30},
	}
	got := m.endToEnd()
	want := map[string]float64{"p50_ms": 1, "p90_ms": 1, "throughput_ops": 3, "cpu_ms_per_op": 1, "rss_peak_mb": 10, "setup_s": 1.5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
}
