package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"parc751/internal/kernels"
	"parc751/internal/parcpar/autogen/par"
	"parc751/internal/parcpar/autogen/seq"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/sortalgo"
	"parc751/internal/workload"
)

// Kernel sizes: each kernel takes well under a millisecond at two
// threads, so no single one dominates a round and a round stays short
// enough for well over 1000 rounds in a run.
const (
	kMatDim     = 96      // hand-written MatMul n×n
	kJacobiDim  = 224     // dense Jacobi system n×n
	kJacobiIter = 8       // Jacobi sweeps per call
	kMDAtoms    = 192     // MD particles (O(n²) forces)
	kFFTLen     = 1 << 13 // FFT points
	kPRVerts    = 4096    // PageRank graph vertices
	kPRIters    = 3       // PageRank iterations per call
	kCCVerts    = 2048    // components graph vertices
	kSortLen    = 12_000  // ptask quicksort elements
	kFlatDim    = 72      // autogen MatMulFlat n×n
	kVecLen     = 1 << 15 // autogen vector kernels
	kForceLen   = 448     // autogen Forces particles
	kSpins      = 1 << 17 // autogen SpinSum terms
	kGraphDeg   = 4
	// kernelRoundsPerSeg rounds make one segment (about a second).
	kernelRoundsPerSeg = 150
)

// checksum folds for kernel outputs. Every par/seq pair that is
// bit-identical must fold to the same value.
func foldFloats(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

func foldInts(xs []int) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

func foldVec3(vs []kernels.Vec3) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		for _, x := range [3]float64{v.X, v.Y, v.Z} {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
	}
	return h
}

func foldComplex(xs []complex128) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ math.Float64bits(real(x))) * 1099511628211
		h = (h ^ math.Float64bits(imag(x))) * 1099511628211
	}
	return h
}

// kernelInputs are every kernel's inputs, all derived from the seed.
type kernelInputs struct {
	matA, matB   *kernels.Matrix
	jacobi       *kernels.JacobiSystem
	md           *kernels.MDSystem
	fft          []complex128
	prGraph      *workload.Graph
	ccGraph      *workload.Graph
	sortIn       []int
	flatA, flatB []float64
	vecX, vecRHS []float64
	pos          []float64
	deg          []int
	adj          [][]int
	label        []int
	spinSeed     uint64
	dotA, dotB   []int64
}

func newKernelInputs(seed uint64) *kernelInputs {
	r := &rng{s: mix64(seed) ^ 0x6b65726e}
	fvec := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.next()>>11)/(1<<53)*2 - 1
		}
		return xs
	}
	in := &kernelInputs{
		matA:     kernels.RandomMatrix(r.next(), kMatDim, kMatDim),
		matB:     kernels.RandomMatrix(r.next(), kMatDim, kMatDim),
		jacobi:   kernels.NewJacobiSystem(r.next(), kJacobiDim),
		md:       kernels.NewMDSystem(r.next(), kMDAtoms, 12),
		prGraph:  workload.GenGraph(r.next(), kPRVerts, kGraphDeg),
		ccGraph:  workload.GenGraph(r.next(), kCCVerts, kGraphDeg),
		sortIn:   workload.IntArray(r.next(), kSortLen, 4*kSortLen),
		flatA:    fvec(kFlatDim * kFlatDim),
		flatB:    fvec(kFlatDim * kFlatDim),
		vecX:     fvec(kVecLen),
		vecRHS:   fvec(kVecLen),
		pos:      fvec(kForceLen),
		spinSeed: r.next(),
	}
	in.fft = make([]complex128, kFFTLen)
	for i := range in.fft {
		in.fft[i] = complex(float64(r.next()>>11)/(1<<53), float64(r.next()>>11)/(1<<53))
	}
	in.deg = make([]int, kVecLen)
	for i := range in.deg {
		in.deg[i] = 1 + r.intn(8)
	}
	in.adj = make([][]int, kVecLen/4)
	in.label = make([]int, kVecLen/4)
	for i := range in.adj {
		in.label[i] = r.intn(1 << 20)
		for j := 0; j < kGraphDeg; j++ {
			in.adj[i] = append(in.adj[i], r.intn(len(in.adj)))
		}
	}
	in.dotA, in.dotB = make([]int64, kVecLen), make([]int64, kVecLen)
	for i := range in.dotA {
		in.dotA[i], in.dotB[i] = int64(r.intn(1<<16))-1<<15, int64(r.intn(1<<16))-1<<15
	}
	return in
}

// digest folds every input, for the same-seed-same-inputs check.
func (in *kernelInputs) digest() uint64 {
	h := foldFloats(in.matA.Data) ^ foldFloats(in.matB.Data)<<1
	h = h*31 + foldFloats(in.jacobi.A.Data) + foldFloats(in.jacobi.Rhs)
	h = h*31 + foldVec3(in.md.Pos) + foldVec3(in.md.Vel)
	h = h*31 + foldComplex(in.fft)
	h = h*31 + foldInts(in.prGraph.Adj) + foldInts(in.ccGraph.Adj) + foldInts(in.sortIn)
	h = h*31 + foldFloats(in.flatA) + foldFloats(in.flatB) + foldFloats(in.vecX) + foldFloats(in.vecRHS) + foldFloats(in.pos)
	h = h*31 + foldInts(in.deg) + foldInts(in.label) + in.spinSeed
	for _, a := range in.adj {
		h = h*31 + foldInts(a)
	}
	for i := range in.dotA {
		h = h*31 + uint64(in.dotA[i]) ^ uint64(in.dotB[i])
	}
	return h
}

// kernelCase is one member of a round: par is what a round runs, seq its
// sequential twin; both return an output checksum. agree, when set,
// replaces exact checksum equality for kernels whose parallel float sums
// associate differently (then par must still repeat exactly).
type kernelCase struct {
	name, group string
	par, seq    func() uint64
	agree       func() error
	want        uint64
}

// newKernelCases binds the round to its inputs. onRegion receives the
// Pyjama stats of the MatMul region (the one kernel that exports them).
func newKernelCases(in *kernelInputs, threads int, rt *ptask.Runtime, onRegion func(pyjama.RegionStats)) []*kernelCase {
	fftBuf := make([]complex128, len(in.fft))
	sortBuf := make([]int, len(in.sortIn))
	flatC := make([]float64, kFlatDim*kFlatDim)
	vecOut := make([]float64, kVecLen)
	forceOut := make([]float64, kForceLen)
	labelOut := make([]int, len(in.label))
	sortedSum := func(xs []int) uint64 {
		if !sort.IntsAreSorted(xs) {
			return 0 // never a fold of real data: it fails the check
		}
		return foldInts(xs)
	}
	return []*kernelCase{
		{name: "matmul", group: "kernels",
			par: func() uint64 {
				c, st := kernels.MatMulParallelStats(threads, in.matA, in.matB)
				onRegion(st)
				return foldFloats(c.Data)
			},
			seq: func() uint64 { return foldFloats(kernels.MatMulSequential(in.matA, in.matB).Data) }},
		{name: "jacobi", group: "kernels",
			par: func() uint64 { return foldFloats(in.jacobi.JacobiParallel(threads, kJacobiIter)) },
			seq: func() uint64 { return foldFloats(in.jacobi.JacobiSequential(kJacobiIter)) }},
		{name: "md_forces", group: "kernels",
			par: func() uint64 { in.md.ComputeForcesParallel(threads); return foldVec3(in.md.Force) },
			seq: func() uint64 { in.md.ComputeForcesSequential(); return foldVec3(in.md.Force) }},
		{name: "fft", group: "kernels",
			par: func() uint64 { copy(fftBuf, in.fft); kernels.FFTParallel(threads, fftBuf); return foldComplex(fftBuf) },
			seq: func() uint64 { copy(fftBuf, in.fft); kernels.FFTSequential(fftBuf); return foldComplex(fftBuf) }},
		{name: "pagerank", group: "kernels",
			par: func() uint64 { return foldFloats(kernels.PageRankParallel(threads, in.prGraph, 0.85, kPRIters)) },
			seq: func() uint64 { return foldFloats(kernels.PageRankSequential(in.prGraph, 0.85, kPRIters)) },
			agree: func() error {
				d := kernels.L1Distance(kernels.PageRankParallel(threads, in.prGraph, 0.85, kPRIters),
					kernels.PageRankSequential(in.prGraph, 0.85, kPRIters))
				if d > 1e-12 {
					return fmt.Errorf("pagerank: par/seq L1 distance %g", d)
				}
				return nil
			}},
		{name: "components", group: "kernels",
			par: func() uint64 { return foldInts(kernels.ComponentsParallel(threads, in.ccGraph)) },
			seq: func() uint64 { return foldInts(kernels.ComponentsSequential(in.ccGraph)) }},
		{name: "qsort", group: "kernels",
			par: func() uint64 { copy(sortBuf, in.sortIn); sortalgo.PTask(rt, sortBuf, 2048); return sortedSum(sortBuf) },
			seq: func() uint64 { copy(sortBuf, in.sortIn); sortalgo.Sequential(sortBuf); return sortedSum(sortBuf) }},

		{name: "matmulflat", group: "autopar",
			par: func() uint64 { par.MatMulFlat(flatC, in.flatA, in.flatB, kFlatDim); return foldFloats(flatC) },
			seq: func() uint64 { seq.MatMulFlat(flatC, in.flatA, in.flatB, kFlatDim); return foldFloats(flatC) }},
		{name: "jacobisweep", group: "autopar",
			par: func() uint64 { par.JacobiSweep(vecOut, in.vecX, in.vecRHS); return foldFloats(vecOut) },
			seq: func() uint64 { seq.JacobiSweep(vecOut, in.vecX, in.vecRHS); return foldFloats(vecOut) }},
		{name: "forces", group: "autopar",
			par: func() uint64 { par.Forces(forceOut, in.pos); return foldFloats(forceOut) },
			seq: func() uint64 { seq.Forces(forceOut, in.pos); return foldFloats(forceOut) }},
		{name: "pagerankstep", group: "autopar",
			par: func() uint64 { par.PageRankStep(vecOut, in.vecX, in.deg); return foldFloats(vecOut) },
			seq: func() uint64 { seq.PageRankStep(vecOut, in.vecX, in.deg); return foldFloats(vecOut) }},
		{name: "componentssweep", group: "autopar",
			par: func() uint64 { par.ComponentsSweep(labelOut, in.label, in.adj); return foldInts(labelOut) },
			seq: func() uint64 { seq.ComponentsSweep(labelOut, in.label, in.adj); return foldInts(labelOut) }},
		{name: "spinsum", group: "autopar",
			par: func() uint64 { return par.SpinSum(kSpins, in.spinSeed) },
			seq: func() uint64 { return seq.SpinSum(kSpins, in.spinSeed) }},
		{name: "dot", group: "autopar",
			par: func() uint64 { return uint64(par.Dot(in.dotA, in.dotB)) },
			seq: func() uint64 { return uint64(seq.Dot(in.dotA, in.dotB)) }},
	}
}

// prepare computes each case's reference: seq and par must agree, and
// the par checksum is what every later round must reproduce.
func prepare(cases []*kernelCase) error {
	for _, k := range cases {
		s, p := k.seq(), k.par()
		if k.agree != nil {
			if err := k.agree(); err != nil {
				return err
			}
		} else if s != p {
			return fmt.Errorf("%s.%s: par checksum %d, seq %d", k.group, k.name, p, s)
		}
		if again := k.par(); again != p {
			return fmt.Errorf("%s.%s: par not repeatable (%d then %d)", k.group, k.name, p, again)
		}
		k.want = p
	}
	return nil
}

// round runs every case once and returns how many checksums mismatched.
// With rec set, each kernel call is a span under the round's root.
func round(cases []*kernelCase, op int, rec *recorder) (bad []string) {
	for _, k := range cases {
		var got uint64
		if rec != nil {
			rec.timed(k.group+"."+k.name, op, rootID(op), func() { got = k.par() })
		} else {
			got = k.par()
		}
		if got != k.want {
			bad = append(bad, fmt.Sprintf("%s.%s: checksum %d, want %d", k.group, k.name, got, k.want))
		}
	}
	return bad
}

// warmRounds run after set-up, before timing.
const warmRounds = 20

// runKernels runs the kernels workload: closed-loop rounds on one
// caller, every kernel at team size nproc.
func runKernels(cfg config, rep *report) (err error) {
	threads := runtime.NumCPU()
	rep.stamp.Clients = 1
	var (
		cases   []*kernelCase
		rt      *ptask.Runtime
		regions regionTally
		tracing bool
		fail    = &failures{}
		lastDig uint64
	)
	onRegion := func(st pyjama.RegionStats) {
		if tracing {
			regions.add(st)
		}
	}
	// setUp builds the inputs (identical in every set-up of a seed), a
	// runtime and the cases, checks par against seq and warms up.
	setUp := func() error {
		in := newKernelInputs(cfg.seed)
		if d := in.digest(); rt != nil && d != lastDig {
			fail.add(-1, fmt.Errorf("kernel inputs differ between set-ups of one seed"))
		} else {
			lastDig = d
		}
		rt = ptask.NewRuntime(threads)
		cases = newKernelCases(in, threads, rt, onRegion)
		if err := prepare(cases); err != nil {
			return err
		}
		for w := 0; w < warmRounds; w++ {
			for _, b := range round(cases, -1, nil) {
				fail.add(-1, fmt.Errorf("warm-up: %s", b))
			}
		}
		return nil
	}
	setUpAgain := func() error {
		rt.Shutdown()
		return rep.m.timeSetup(setUp)
	}
	if err := rep.m.timeSetup(setUp); err != nil {
		return err
	}
	for r := 1; r < setupsBefore; r++ {
		if err := setUpAgain(); err != nil {
			return err
		}
	}
	defer func() {
		for r := 0; r < setupsAfter && err == nil; r++ {
			err = setUpAgain()
		}
		rt.Shutdown()
		rep.failed, rep.failures = fail.n, fail.first
	}()

	rec := newRecorder(cfg.seconds * kernelRoundsPerSeg)
	var (
		sc               schedCounts
		ms0, ms1         runtime.MemStats
		allocB, gcs      uint64
		tracedOps        int
		tracedLat, plain []float64
	)
	ticks0 := readCPUTicks()
	for seg := 0; seg < cfg.seconds; seg++ {
		traced := cfg.trace && seg%2 == 1
		var before schedCounts
		if traced {
			before = countsOf(rt.SchedStats())
			runtime.ReadMemStats(&ms0)
			tracing = true
		}
		var segRec *recorder
		if traced {
			segRec = rec
		}
		rep.m.startSegment()
		for i := 0; i < kernelRoundsPerSeg; i++ {
			op := seg*kernelRoundsPerSeg + i
			start := rec.now()
			bad := round(cases, op, segRec)
			end := rec.now()
			for _, b := range bad {
				fail.add(op, fmt.Errorf("%s", b))
			}
			ms := float64(end-start) / 1e6
			rep.m.lat = append(rep.m.lat, ms)
			if traced {
				rec.add(span{ID: rootID(op), Name: "round", Op: op, Start: start, End: end})
				tracedLat = append(tracedLat, ms)
			} else {
				plain = append(plain, ms)
			}
		}
		rep.m.addSegment(kernelRoundsPerSeg)
		if traced {
			tracing = false
			runtime.ReadMemStats(&ms1)
			sc.addDelta(before, countsOf(rt.SchedStats()))
			allocB += ms1.TotalAlloc - ms0.TotalAlloc
			gcs += uint64(ms1.NumGC - ms0.NumGC)
			tracedOps += kernelRoundsPerSeg
		}
	}
	rep.stamp.StealPct = stealPct(ticks0, readCPUTicks())
	rep.attempted = len(rep.m.lat)
	if !cfg.trace {
		return nil
	}

	// Sequential baselines run only in the traced run, after the rounds.
	out := rep.layer
	for _, k := range cases {
		key := k.group + "." + k.name
		var parMs, seqMs []float64
		for _, s := range rec.byName(key) {
			parMs = append(parMs, s.ms())
		}
		for i := 0; i < seqReps; i++ {
			s := rec.timed("seq."+key, -1, 0, func() { k.seq() })
			seqMs = append(seqMs, s.ms())
		}
		p, q := median(parMs), median(seqMs)
		out[key+".par_ms"], out[key+".seq_ms"], out[key+".speedup"] = p, q, ratio(q, p)
	}
	sc.into(out, tracedOps)
	memInto(out, allocB, gcs, tracedOps)
	out["trace.overhead_pct"] = overheadPct(tracedLat, plain)
	pyjamaProbes(rec, out)
	regions.into(out)
	rep.rec = rec
	return nil
}

// seqReps is how many times each sequential twin is timed.
const seqReps = 30

// pyjamaProbes times bare Pyjama calls at team size nproc — an empty
// region (fork + join) and a barrier inside a live region — and returns
// the probe region's worksharing and barrier tallies.
func pyjamaProbes(rec *recorder, out map[string]float64) regionTally {
	const reps = 500
	n := runtime.NumCPU()
	for i := 0; i < 20; i++ {
		pyjama.Parallel(n, func(*pyjama.TC) {})
	}
	var fj []float64
	for i := 0; i < reps; i++ {
		s := rec.timed("pyjama.fork_join", -1, 0, func() { pyjama.Parallel(n, func(*pyjama.TC) {}) })
		fj = append(fj, float64(s.End-s.Start)/1e3)
	}
	// Every member times its own barrier calls into its private slot.
	bars := pyjama.NewThreadPrivate[[]span](n)
	st := pyjama.ParallelWithStats(n, func(tc *pyjama.TC) {
		tc.For(64*n, pyjama.Static(0), func(int) {})
		mine := bars.Get(tc.ThreadNum())
		for i := 0; i < reps; i++ {
			s := span{Name: "pyjama.barrier", Op: -1, Start: rec.now()}
			tc.Barrier()
			s.End = rec.now()
			*mine = append(*mine, s)
		}
	})
	var bus []float64
	for _, spans := range bars.Values() {
		for _, s := range spans {
			rec.add(s)
			bus = append(bus, float64(s.End-s.Start)/1e3)
		}
	}
	out["pyjama.fork_join_us"] = median(fj)
	out["pyjama.barrier_us"] = median(bus)
	var t regionTally
	t.add(st)
	return t
}
