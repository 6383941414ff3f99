package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point (nothing inside the program is instrumented).
// Spans of one request or round share Op; Parent names the causing span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) ms() float64        { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory; write dumps them when the run ends.
// IDs 1..reserved belong to the op root spans (op i has ID i+1), so a
// child can name its parent before the parent is recorded.
type recorder struct {
	base   time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder(reserved int) *recorder {
	r := &recorder{base: time.Now()}
	r.nextID.Store(int64(reserved))
	return r
}

// now is nanoseconds since the recorder was made (monotonic).
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func rootID(op int) int64 { return int64(op) + 1 }

// add records s, assigning an ID when s has none, and returns the ID.
func (r *recorder) add(s span) int64 {
	if s.ID == 0 {
		s.ID = r.nextID.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// timed runs fn inside a span named name under parent.
func (r *recorder) timed(name string, op int, parent int64, fn func()) span {
	s := span{Name: name, Op: op, Parent: parent, Start: r.now()}
	fn()
	s.End = r.now()
	s.ID = r.add(s)
	return s
}

// byName returns the recorded spans named name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span with the run's stamp as one JSON document.
func (r *recorder) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
