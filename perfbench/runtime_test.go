package main

import (
	"runtime"
	"testing"
	"time"
)

// The peak must include a working set that is live only between two
// phase boundaries, as long as a collection runs while it is live.
func TestHeapPeakSeesTransientWorkingSet(t *testing.T) {
	h := startHeapPeak()
	h.mark()
	before := h.peak.Load()

	const size = 64 << 20
	work := make([]byte, size)
	for i := range work {
		work[i] = byte(i)
	}
	runtime.GC() // a collection in the middle of the work
	time.Sleep(5 * heapSampleEvery)
	runtime.KeepAlive(work)
	work = nil

	h.mark()
	peak := h.stopMB()
	// Other live objects may shrink meanwhile, by far less than this.
	if got := peak*1e6 - float64(before); got < 0.9*size {
		t.Errorf("peak rose by %.0f bytes over the transient %d-byte working set, want about as much", got, size)
	}
	if again := h.stopMB(); again != peak { //lint:allow floatcmp -- the same stored value read twice
		t.Errorf("second stopMB %v, want %v", again, peak)
	}
}
