package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the 1-based id of the
// span that caused it (0 for a root); Trace groups the spans of one
// request or one drift cycle (0 for none).
type span struct {
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Trace  int64         `json:"trace"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no checks.
type tracer struct {
	t0     time.Time
	paused atomic.Bool // while set, begin records nothing and returns 0
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil or paused tracer).
// A child opened with trace 0 joins its parent's trace.
func (t *tracer) begin(layer, name string, parent int, trace int64) int {
	if t == nil || t.paused.Load() {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	if trace == 0 && parent > 0 && parent <= len(t.spans) {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Trace: trace, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span; f receives the span id for its children.
func (t *tracer) do(layer, name string, parent int, f func(id int)) {
	id := t.begin(layer, name, parent, 0)
	f(id)
	t.end(id)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of the closed spans with this layer
// and name, in recording order.
func durations(spans []span, layer, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Layer == layer && s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes sums, per layer, each closed span's duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent calls) are counted once, by the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i+1] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), cs.End
			if cs.End == 0 || hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		out[s.Layer] += s.End - s.Start - union(iv)
	}
	return out
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
