package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []span{
		{Layer: "a", Start: 0, End: 100},             // 1
		{Layer: "b", Parent: 1, Start: 10, End: 30},  // 2
		{Layer: "b", Parent: 1, Start: 20, End: 50},  // 3: overlaps 2
		{Layer: "c", Parent: 1, Start: 90, End: 120}, // 4: runs past its parent
		{Layer: "c", Parent: 4, Start: 95, End: 100}, // 5
		{Layer: "d", Start: 0, End: 0},               // never closed: ignored
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"a": 50, "b": 20 + 30, "c": 25 + 5}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self %v, want %v", layer, got[layer], w)
		}
	}
	if _, ok := got["d"]; ok {
		t.Errorf("unclosed span counted: %v", got["d"])
	}
}

func TestTracerChildJoinsParentTrace(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("loadgen", "POST /recommend", 0, 42)
	child := tr.begin("serve", "/recommend", root, 0)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if s[1].Trace != 42 || s[1].Parent != root {
		t.Errorf("child span %+v, want trace 42 under span %d", s[1], root)
	}
	if d := durations(s, "serve", "/recommend"); len(d) != 1 || d[0] <= 0 {
		t.Errorf("durations %v, want one positive", d)
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", "y", 0, func(id int) { ran = id == 0 })
	if !ran || tr.snapshot() != nil {
		t.Errorf("nil tracer: ran=%v spans=%v", ran, tr.snapshot())
	}
}

func TestPausedTracerRecordsNothing(t *testing.T) {
	tr := newTracer(true)
	tr.paused.Store(true)
	tr.do("x", "paused", 0, func(id int) {
		if id != 0 {
			t.Errorf("paused tracer gave span id %d", id)
		}
	})
	tr.paused.Store(false)
	tr.do("x", "recording", 0, func(int) {})
	if s := tr.snapshot(); len(s) != 1 || s[0].Name != "recording" {
		t.Errorf("spans %+v, want only the one recorded after the pause", s)
	}
}
