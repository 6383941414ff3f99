package main

import (
	"fmt"
	"slices"
	"sort"

	"parc751/internal/kernels"
	"parc751/internal/pdfsearch"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/sortalgo"
	"parc751/internal/textsearch"
	"parc751/internal/thumbs"
	"parc751/internal/workload"
)

// fnv1a folds b into h, the checksum step of parcserve's job responses
// (a served checksum is the FNV-1a fold of sampled result values).
func fnv1a(h, b uint64) uint64 {
	const prime = 1099511628211
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= (b >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// sampleInts folds every (1+len/64)-th element, as the sort job does.
func sampleInts(xs []int) uint64 {
	var h uint64
	for i := 0; i < len(xs); i += 1 + len(xs)/64 {
		h = fnv1a(h, uint64(xs[i]))
	}
	return h
}

func sampleMatrix(c *kernels.Matrix) uint64 {
	var h uint64
	for i := 0; i < len(c.Data); i += 1 + len(c.Data)/64 {
		h = fnv1a(h, uint64(int64(c.Data[i]*1e6)))
	}
	return h
}

func thumbSum(out []*workload.Image) uint64 {
	var h uint64
	for _, im := range out {
		for _, px := range im.Pix[:min(16, len(im.Pix))] {
			h = fnv1a(h, uint64(px))
		}
	}
	return h
}

// jobBody is one served kind as direct calls into its layers: gen
// synthesises the inputs (the workload layer), seq is the serial
// reference the served checksum must equal, and par is the body the
// server runs, on a ptask runtime of the server's size.
type jobBody struct {
	gen func(seed uint64, n int) any
	seq func(in any) (uint64, error)
	par func(rt *ptask.Runtime, in any, region func(pyjama.RegionStats)) (uint64, error)
}

type folderIn struct {
	f      *workload.Folder
	needle string
}

type docsIn struct {
	docs   []*workload.Document
	needle string
}

var errUnsorted = fmt.Errorf("sort produced unsorted output")

var jobBodies = map[string]jobBody{
	"sort": {
		gen: func(seed uint64, n int) any { return workload.IntArray(seed, n, n*4) },
		seq: func(in any) (uint64, error) {
			xs := in.([]int)
			slices.Sort(xs)
			return sampleInts(xs), nil
		},
		par: func(rt *ptask.Runtime, in any, _ func(pyjama.RegionStats)) (uint64, error) {
			xs := in.([]int)
			sortalgo.PTask(rt, xs, 2048)
			if !sort.IntsAreSorted(xs) {
				return 0, errUnsorted
			}
			return sampleInts(xs), nil
		},
	},
	"textsearch": {
		gen: func(seed uint64, n int) any {
			spec := workload.DefaultFolderSpec(seed)
			spec.NumFiles = n
			f, _ := workload.GenFolder(spec)
			return folderIn{f, spec.NeedleWord}
		},
		seq: func(in any) (uint64, error) {
			fi := in.(folderIn)
			var h uint64
			for _, m := range textsearch.Sequential(fi.f, textsearch.Literal(fi.needle)) {
				h = fnv1a(h, uint64(m.Line))
			}
			return h, nil
		},
		par: func(rt *ptask.Runtime, in any, _ func(pyjama.RegionStats)) (uint64, error) {
			fi := in.(folderIn)
			var h uint64
			for _, m := range textsearch.NewSearcher(rt).Search(fi.f, textsearch.Literal(fi.needle), textsearch.Options{}) {
				h = fnv1a(h, uint64(m.Line))
			}
			return h, nil
		},
	},
	"pdfsearch": {
		gen: func(seed uint64, n int) any {
			spec := workload.DefaultDocSpec(seed)
			spec.NumDocs = n
			docs, _ := workload.GenDocs(spec)
			return docsIn{docs, spec.Needle}
		},
		seq: func(in any) (uint64, error) {
			di := in.(docsIn)
			var h uint64
			for _, hit := range pdfsearch.Sequential(di.docs, di.needle) {
				h = fnv1a(h, uint64(hit.Page))
			}
			return h, nil
		},
		par: func(rt *ptask.Runtime, in any, _ func(pyjama.RegionStats)) (uint64, error) {
			di := in.(docsIn)
			var h uint64
			for _, hit := range pdfsearch.Search(rt, di.docs, di.needle, pdfsearch.Options{Granularity: pdfsearch.Hybrid}) {
				h = fnv1a(h, uint64(hit.Page))
			}
			return h, nil
		},
	},
	"thumbs": {
		gen: func(seed uint64, n int) any { return workload.GenImageSet(seed, n, 64, 256) },
		seq: func(in any) (uint64, error) { return thumbSum(thumbs.Sequential(in.([]*workload.Image), 32, 32)), nil },
		par: func(rt *ptask.Runtime, in any, _ func(pyjama.RegionStats)) (uint64, error) {
			return thumbSum(thumbs.PTask(rt, in.([]*workload.Image), 32, 32, nil)), nil
		},
	},
	"matmul": {
		gen: func(seed uint64, n int) any {
			return [2]*kernels.Matrix{kernels.RandomMatrix(seed, n, n), kernels.RandomMatrix(seed+1, n, n)}
		},
		seq: func(in any) (uint64, error) {
			ab := in.([2]*kernels.Matrix)
			return sampleMatrix(kernels.MatMulSequential(ab[0], ab[1])), nil
		},
		par: func(rt *ptask.Runtime, in any, region func(pyjama.RegionStats)) (uint64, error) {
			ab := in.([2]*kernels.Matrix)
			c, st := kernels.MatMulParallelStats(rt.Workers(), ab[0], ab[1])
			region(st)
			return sampleMatrix(c), nil
		},
	},
}

// referencePass computes, serially and without the server, the checksum
// every distinct request in lists must be answered with.
func referencePass(lists ...[]jobReq) (map[reqKey]uint64, error) {
	ref := map[reqKey]uint64{}
	for _, list := range lists {
		for _, q := range list {
			if _, done := ref[q.key()]; done {
				continue
			}
			b, ok := jobBodies[q.Kind]
			if !ok {
				return nil, fmt.Errorf("reference: unknown kind %q", q.Kind)
			}
			sum, err := b.seq(b.gen(q.Seed, q.N))
			if err != nil {
				return nil, err
			}
			ref[q.key()] = sum
		}
	}
	return ref, nil
}
