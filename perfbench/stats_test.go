package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 5, 9, 2, 8, 4, 6}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("one sample: p99 = %v, want 42", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("no samples: got %v, want NaN", got)
	}
}

func TestDurPercentileKeepsOrder(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := durPercentile(ds, 50, time.Millisecond); got != 2 {
		t.Errorf("p50 = %v ms, want 2", got)
	}
	if ds[0] != 3*time.Millisecond {
		t.Errorf("input reordered: %v", ds)
	}
}

func TestTailWithMissesCountsFailures(t *testing.T) {
	lat := []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	ok := []bool{true, true, true, false}
	if got := tailWithMisses(lat, ok, 75); got != 1 {
		t.Errorf("p75 = %v, want 1", got)
	}
	if got := tailWithMisses(lat, ok, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}
