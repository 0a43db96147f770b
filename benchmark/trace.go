package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the benchmark
// around its calls into the simulator (none is recorded inside it), kept in
// memory, and written once at exit.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // host time since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
	Ops      int    `json:"ops"`
}

// tracer collects spans. A nil tracer records nothing, so the timed
// iterations and the traced one share their code.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(epoch time.Time, workload string) *tracer {
	return &tracer{epoch: epoch, workload: workload}
}

// span runs fn inside a span nested under the innermost open one; fn
// returns the number of operations the span covered.
func (t *tracer) span(name, layer string, fn func() int) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload})
	t.open = append(t.open, id)
	start := time.Now()
	ops := fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.StartNs, s.EndNs, s.Ops = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), ops
	return end.Sub(start)
}

// adopt appends spans recorded by another tracer with the same epoch (a
// child process), renumbering ids so they stay unique.
func (t *tracer) adopt(spans []span) {
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's duration minus the interval its children
// cover (children of one parent never overlap: the benchmark is sequential).
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

type traceFile struct {
	Provenance provenance `json:"provenance"`
	Spans      []span     `json:"spans"`
}

func writeTrace(dir string, prov provenance, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(traceFile{prov, spans}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
