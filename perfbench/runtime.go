package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Go runtime metrics the benchmark reads (all present since Go 1.22).
const (
	mHeapLive   = "/gc/heap/live:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedDelay = "/sched/latencies:seconds"
)

// heapSampleEvery is how often the peak-heap sampler reads the live heap.
const heapSampleEvery = 10 * time.Millisecond

// heapPeak tracks the largest live heap of a run. The runtime updates
// /gc/heap/live:bytes at the end of every collection, so a background
// goroutine that reads it every heapSampleEvery sees the live heap of
// each collection the run makes, including those in the middle of
// mining, a refresh or a set-up; mark adds the reading after a forced
// collection at a phase boundary.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapPeak) read() {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for cur := h.peak.Load(); v > cur && !h.peak.CompareAndSwap(cur, v); cur = h.peak.Load() {
	}
}

// mark collects garbage and reads the live heap, so that each set-up
// and each timed phase starts from a collected heap, as in a fresh
// process.
func (h *heapPeak) mark() {
	runtime.GC()
	h.read()
}

// stopMB stops the sampler, waits for it, and returns the peak in MB.
// Later calls return the same peak.
func (h *heapPeak) stopMB() float64 {
	h.once.Do(func() {
		close(h.stop)
		h.wg.Wait()
	})
	return float64(h.peak.Load()) / 1e6
}

// runtimeCounters is a point-in-time copy of the cumulative runtime
// counters; the difference of two copies describes the interval between.
type runtimeCounters struct {
	gcCycles uint64
	pauses   *metrics.Float64Histogram
	sched    *metrics.Float64Histogram
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCPauses}, {Name: mSchedDelay}}
	metrics.Read(s)
	var rc runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		rc.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		rc.pauses = copyHist(s[1].Value.Float64Histogram())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		rc.sched = copyHist(s[2].Value.Float64Histogram())
	}
	return rc
}

func copyHist(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// histDeltaQuantile returns the p-quantile (0..1), in seconds, of the
// observations added to a cumulative runtime histogram between a and b:
// the upper edge of the bucket holding the nearest-rank sample (the
// lower edge where the upper one is unbounded). 0 when nothing was added.
func histDeltaQuantile(a, b *metrics.Float64Histogram, p float64) float64 {
	if b == nil {
		return 0
	}
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i, c := range b.Counts {
		counts[i] = c
		if a != nil && i < len(a.Counts) {
			counts[i] -= a.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
