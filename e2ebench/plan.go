package main

import (
	"fmt"
	"strconv"
)

// Workload names, as passed to --workload.
const (
	wlMix     = "serve-mix"
	wlSmall   = "serve-small"
	wlKernels = "kernels"
)

var workloads = []string{wlMix, wlSmall, wlKernels}

// mix64 is the splitmix64 finaliser: a bijection on uint64, so distinct
// inputs give distinct outputs.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a splitmix64 stream; every planned input comes from one, keyed
// by the workload seed, so the same seed plans the same run.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// jobReq is one planned POST /jobs/{kind}. Body is the exact JSON sent.
type jobReq struct {
	Kind string
	Seed uint64
	N    int
	Body []byte
}

func newJobReq(kind string, seed uint64, n int) jobReq {
	return jobReq{Kind: kind, Seed: seed, N: n,
		Body: []byte(`{"seed":` + strconv.FormatUint(seed, 10) + `,"n":` + strconv.Itoa(n) + `}`)}
}

// reqKey identifies a job's inputs; equal keys must give equal checksums.
type reqKey struct {
	kind string
	seed uint64
	n    int
}

func (r jobReq) key() reqKey { return reqKey{r.Kind, r.Seed, r.N} }

// reqPlan is a serve workload's whole run, fixed before any request is
// sent: warm-up requests, then segments of requests that all have the
// same composition (kinds and sizes), so every segment does the same
// work and per-segment figures can be reduced by their median.
type reqPlan struct {
	workload string
	seed     uint64
	segments int
	perSeg   int
	warmup   []jobReq
	reqs     []jobReq // segments × perSeg, segment-major
}

// segment returns the requests of segment i.
func (p *reqPlan) segment(i int) []jobReq { return p.reqs[i*p.perSeg : (i+1)*p.perSeg] }

// mixKinds are serve-mix's job kinds with their sizes. Every kind takes
// the unbatched single-job path (sorts above 4096 elements are not
// coalesced). Each kind gets the same number of requests: the mix is a
// synthetic one chosen so that every kind's layers are sampled equally,
// not a measured traffic mix (README.md).
var mixKinds = []struct {
	kind string
	n    int
}{
	{"sort", 50_000},
	{"textsearch", 50},
	{"pdfsearch", 30},
	{"thumbs", 12},
	{"matmul", 96},
}

const (
	// mixPool is how many distinct seeds each serve-mix kind draws from,
	// so inputs repeat and an input cache would have something to hit.
	// The size is a choice, not a measured repeat rate: each input then
	// appears mixReps × clients times per segment.
	mixPool = 10
	// mixReps is how often each (kind, pool seed) pair appears per client
	// in one segment; a segment then takes about a second on a 2-CPU host.
	mixReps = 2
	// smallPerClient is serve-small's requests per client per segment
	// (about a second at the batcher's 2 ms flush delay).
	smallPerClient = 300
	// smallMinN and smallMaxN bound serve-small's sort sizes; every size
	// is at most parcserve's coalescing threshold, so each request is
	// batched.
	smallMinN = 500
	smallMaxN = 4096
)

// planServe plans a serve workload for the given client count. Seconds
// is the number of segments.
func planServe(workload string, seed uint64, clients, seconds int) (*reqPlan, error) {
	if clients < 1 || seconds < 1 {
		return nil, fmt.Errorf("plan: need clients >= 1 and seconds >= 1")
	}
	p := &reqPlan{workload: workload, seed: seed, segments: seconds}
	r := &rng{s: mix64(seed) ^ 0x6d697865}
	switch workload {
	case wlMix:
		pool := make([][]uint64, len(mixKinds))
		for k := range mixKinds {
			for j := 0; j < mixPool; j++ {
				pool[k] = append(pool[k], r.next()|1)
			}
		}
		for k, mk := range mixKinds {
			for _, s := range pool[k] {
				p.warmup = append(p.warmup, newJobReq(mk.kind, s, mk.n))
			}
		}
		shuffle(r, p.warmup)
		p.perSeg = len(mixKinds) * mixPool * mixReps * clients
		for seg := 0; seg < p.segments; seg++ {
			var part []jobReq
			for k, mk := range mixKinds {
				for _, s := range pool[k] {
					for c := 0; c < mixReps*clients; c++ {
						part = append(part, newJobReq(mk.kind, s, mk.n))
					}
				}
			}
			shuffle(r, part)
			p.reqs = append(p.reqs, part...)
		}
	case wlSmall:
		// Sizes are stratified over [smallMinN, smallMaxN], so every
		// segment sorts the same multiset of lengths; seeds are distinct
		// across the whole run (mix64 is a bijection of base+i).
		p.perSeg = smallPerClient * clients
		sizes := make([]int, p.perSeg)
		for i := range sizes {
			sizes[i] = smallMinN + i*(smallMaxN-smallMinN)/max(p.perSeg-1, 1)
		}
		base := r.next()
		for seg := 0; seg < p.segments; seg++ {
			part := append([]int(nil), sizes...)
			shuffle(r, part)
			for i, n := range part {
				p.reqs = append(p.reqs, newJobReq("sort", mix64(base+uint64(seg*p.perSeg+i))|1, n))
			}
		}
		warmBase := r.next()
		for i := 0; i < 20*clients; i++ {
			n := smallMinN + r.intn(smallMaxN-smallMinN+1)
			p.warmup = append(p.warmup, newJobReq("sort", mix64(warmBase+uint64(i))|1, n))
		}
	default:
		return nil, fmt.Errorf("plan: %q is not a serve workload", workload)
	}
	return p, nil
}

// bytes serialises the plan exactly as it goes on the wire, for the
// same-seed-same-list check.
func (p *reqPlan) bytes() []byte {
	var b []byte
	for _, list := range [][]jobReq{p.warmup, p.reqs} {
		for _, q := range list {
			b = append(b, "POST /jobs/"+q.Kind+" "...)
			b = append(b, q.Body...)
			b = append(b, '\n')
		}
		b = append(b, "--\n"...)
	}
	return b
}
