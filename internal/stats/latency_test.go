package stats

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistBucketMonotoneAndBounded(t *testing.T) {
	lastIx := -1
	for us := int64(0); us < 1<<20; us = us*5/4 + 1 {
		ix := bucketIx(us)
		if ix < 0 || ix >= histBuckets {
			t.Fatalf("bucketIx(%d) = %d out of range [0,%d)", us, ix, histBuckets)
		}
		if ix < lastIx {
			t.Fatalf("bucketIx not monotone: bucketIx(%d)=%d after %d", us, ix, lastIx)
		}
		lastIx = ix
		up := bucketUpper(ix)
		if up < us {
			t.Fatalf("bucketUpper(%d)=%d below the recorded value %d", ix, up, us)
		}
		// Sub-bucketed powers of two bound the relative error: the bucket
		// upper edge overshoots by at most one sub-bucket width, 1/32 of
		// the row base — ~3.2% once past the exact row.
		if us >= histSub && float64(up-us) > float64(us)/float64(histSub)+1 {
			t.Fatalf("bucketUpper(%d)=%d overshoots %d beyond the error bound", ix, up, us)
		}
	}
}

func TestHistExactBelowRowZero(t *testing.T) {
	// Values below histSub µs land in dedicated single-µs buckets whose
	// exclusive upper edge is the value plus one.
	for us := int64(0); us < histSub; us++ {
		if got := bucketUpper(bucketIx(us)); got != us+1 {
			t.Fatalf("row-0 value %dµs maps to upper edge %dµs, want %d", us, got, us+1)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d, want 100", h.N())
	}
	for _, tc := range []struct{ p, atLeast, atMost float64 }{
		{0.5, 50, 54},   // 50ms value, ≤3.2% bucket overshoot
		{0.99, 99, 103}, // 99ms value
		{1.0, 100, 104},
	} {
		got := h.Quantile(tc.p).Seconds() * 1e3
		if got < tc.atLeast || got > tc.atMost {
			t.Fatalf("Quantile(%g) = %.3fms, want within [%g, %g]", tc.p, got, tc.atLeast, tc.atMost)
		}
	}
	if mean := h.Mean(); mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Fatalf("Mean = %v, want ≈50.5ms", mean)
	}
	// Quantiles are monotone in p.
	last := time.Duration(0)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := h.Quantile(p)
		if q < last {
			t.Fatalf("Quantile(%g) = %v < previous %v", p, q, last)
		}
		last = q
	}
}

func TestHistConcurrentRecord(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.N() != workers*per {
		t.Fatalf("N = %d, want %d", h.N(), workers*per)
	}
}

func TestHistSnapshotAddEqualsJointRecording(t *testing.T) {
	var a, b, joint Hist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(300*time.Microsecond))
		if i%3 == 0 {
			d *= 1000 // a slow tail, several octaves up
		}
		if rng.Intn(2) == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		joint.Record(d)
	}
	merged := a.Snapshot()
	merged.Add(b.Snapshot())
	if *merged != *joint.Snapshot() {
		t.Fatal("merged snapshot differs from recording both streams into one histogram")
	}
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, w := merged.Quantile(p), joint.Quantile(p); got != w {
			t.Errorf("Quantile(%g): merged %v, joint %v", p, got, w)
		}
	}
	if merged.Mean() != joint.Mean() || merged.N() != joint.N() {
		t.Errorf("merged N/mean %d/%v, joint %d/%v", merged.N(), merged.Mean(), joint.N(), joint.Mean())
	}
	var sum, lastEdge int64
	for _, bk := range merged.Buckets() {
		if bk[0] <= lastEdge || bk[1] <= 0 {
			t.Fatalf("bucket %v after edge %d: edges must strictly ascend and counts be positive", bk, lastEdge)
		}
		lastEdge = bk[0]
		sum += bk[1]
	}
	if sum != merged.N() {
		t.Errorf("buckets sum to %d, N is %d", sum, merged.N())
	}
}
