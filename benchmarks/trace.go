package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the harness made into a layer's public function.
// Spans are recorded from the benchmark's own files, around the call;
// nothing inside the program is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since tracer start
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at the root
	Query  int32  `json:"query"`  // per-query id shared by one request's spans, -1 when not per-query
}

// tracer keeps spans in memory for the one driver goroutine that issues
// every call; parents come from its begin/end nesting. With on == false
// begin and end cost one branch, which is how end-to-end runs execute.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end; -1 when tracing is off.
func (t *tracer) begin(name string, query int) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Query: int32(query), Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name, -1)
	err := fn()
	t.end(id)
	return err
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	N     int
	Total time.Duration // sum of durations
	Self  time.Duration // durations minus the part child spans cover
	durs  []float64     // per-span durations in microseconds
}

// aggregate folds the recorded spans by name. Self time is a span's
// duration minus its direct children's.
func (t *tracer) aggregate() map[string]*spanStats {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.N++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - childSum[i])
		st.durs = append(st.durs, float64(d)/1e3)
	}
	return out
}

// check verifies the span tree is well formed: every span closed, children
// inside their parents, self time never negative.
func (t *tracer) check() error {
	if len(t.stack) != 0 {
		return fmt.Errorf("trace: %d spans still open", len(t.stack))
	}
	childSum := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if int(s.Parent) >= i || s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("trace: span %d (%s) escapes its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
			childSum[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if childSum[i] > s.End-s.Start {
			return fmt.Errorf("trace: span %d (%s) has negative self time", i, s.Name)
		}
	}
	return nil
}

// write dumps every span as JSON, at exit.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
