package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// lateAfter is how far past its due time a request may be sent before
// the generator counts it as late. Go timers wake tens of microseconds
// after their deadline, so anything below this is timer jitter, not a
// generator that is falling behind.
const lateAfter = time.Millisecond

// paced is the record of one open-loop phase. Every slice is indexed by
// request number.
type paced struct {
	// Latency runs from the request's due time to its completion, so a
	// request that waited for a free slot carries that wait too.
	Latency []time.Duration
	// Lag is how late the request was sent: send time minus due time.
	Lag []time.Duration
	// OK reports whether the request succeeded.
	OK []bool
	// InflightMax is the most requests that were ever in flight at once.
	InflightMax int
	// Elapsed is the wall time of the whole phase.
	Elapsed time.Duration
}

// pace sends n requests open-loop at a fixed rate (requests per second)
// with at most workers in flight. Request i is due at start + i/rate
// whether or not earlier requests have finished, and is timed from that
// due time: when every worker is busy past a due time, the request
// waits, and the wait counts in its latency and its lag. send performs
// request i, given its due time, and reports success; it runs on one of
// the workers. Closing stop (nil for never) ends the phase early: no
// request is sent after it, and the record covers the ones that were.
func pace(rate float64, n, workers int, stop <-chan struct{}, send func(i int, due time.Time) bool) *paced {
	p := &paced{
		Latency: make([]time.Duration, n),
		Lag:     make([]time.Duration, n),
		OK:      make([]bool, n),
	}
	period := time.Duration(float64(time.Second) / rate)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var inflight, inflightMax atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p.Lag[j.i] = time.Since(j.due)
				cur := inflight.Add(1)
				for {
					m := inflightMax.Load()
					if cur <= m || inflightMax.CompareAndSwap(m, cur) {
						break
					}
				}
				p.OK[j.i] = send(j.i, j.due)
				inflight.Add(-1)
				p.Latency[j.i] = time.Since(j.due)
			}
		}()
	}
	unpin := pinSleeper()
	start := time.Now()
	sent := n
dispatch:
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		sleepUntil(due)
		select {
		case <-stop:
			sent = i
			break dispatch
		default:
		}
		jobs <- job{i, due}
	}
	unpin()
	close(jobs)
	wg.Wait()
	p.Latency, p.Lag, p.OK = p.Latency[:sent], p.Lag[:sent], p.OK[:sent]
	p.Elapsed = time.Since(start)
	p.InflightMax = int(inflightMax.Load())
	return p
}

// lateCount is the number of requests sent more than lateAfter past due.
func (p *paced) lateCount() int {
	n := 0
	for _, l := range p.Lag {
		if l > lateAfter {
			n++
		}
	}
	return n
}

// maxLag is the largest send lag of the phase.
func (p *paced) maxLag() time.Duration {
	var m time.Duration
	for _, l := range p.Lag {
		if l > m {
			m = l
		}
	}
	return m
}

// lagGrowth is the mean send lag of the last quarter of the phase minus
// that of the first quarter: a generator that keeps up holds it near
// zero, one that cannot keeps falling further behind.
func (p *paced) lagGrowth() time.Duration {
	q := len(p.Lag) / 4
	if q == 0 {
		return 0
	}
	var first, last time.Duration
	for i := 0; i < q; i++ {
		first += p.Lag[i]
		last += p.Lag[len(p.Lag)-1-i]
	}
	return (last - first) / time.Duration(q)
}

// tailWithMisses is the nearest-rank pct-th percentile of lat in ms,
// with every request whose ok is false counted as missing any limit.
func tailWithMisses(lat []time.Duration, ok []bool, pct float64) float64 {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		if ok[i] {
			xs[i] = ms(d)
		} else {
			xs[i] = math.Inf(1)
		}
	}
	return percentile(xs, pct)
}
