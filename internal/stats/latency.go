package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values are microseconds, bucketed HDR-style
// into rows of histSub sub-buckets per power of two. Row 0 holds the
// exact values [0, histSub); every later row r spans one octave
// [2^(histSubBits+r-1), 2^(histSubBits+r)) split into histSub equal
// sub-buckets, so the relative bucket width — and therefore the maximum
// quantile error — is 1/histSub ≈ 3.1% everywhere.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histMaxExp caps recordable values at 2^histMaxExp µs ≈ 4.8 hours;
	// anything above clamps into the last bucket.
	histMaxExp  = 34
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// Hist is a fixed-size log-bucketed latency histogram with lock-free
// recording: two atomic adds per observation, safe for any number of
// concurrent recorders. Reads go through Snapshot, a best-effort copy
// that is exact once recording has quiesced.
type Hist struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64 // µs
}

// bucketIx maps a non-negative microsecond value to its bucket.
func bucketIx(us int64) int {
	if us < 0 {
		us = 0
	}
	if us >= 1<<histMaxExp {
		us = 1<<histMaxExp - 1
	}
	if us < histSub {
		return int(us)
	}
	exp := bits.Len64(uint64(us)) - 1 // 2^exp ≤ us < 2^(exp+1)
	shift := exp - histSubBits
	row := shift + 1
	return row*histSub + int(us>>shift) - histSub
}

// bucketUpper returns the exclusive upper edge of bucket ix in µs.
func bucketUpper(ix int) int64 {
	if ix < histSub {
		return int64(ix) + 1
	}
	row := ix / histSub
	within := ix % histSub
	shift := row - 1
	return (int64(histSub+within) + 1) << shift
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	us := d.Microseconds()
	h.counts[bucketIx(us)].Add(1)
	h.sum.Add(us)
}

// N returns the number of observations recorded.
func (h *Hist) N() int64 { return h.Snapshot().N() }

// Mean returns the mean observation (0 when empty).
func (h *Hist) Mean() time.Duration { return h.Snapshot().Mean() }

// Quantile returns an upper bound on the p-quantile; see
// HistSnapshot.Quantile.
func (h *Hist) Quantile(p float64) time.Duration { return h.Snapshot().Quantile(p) }

// Snapshot copies the histogram at one point in time.
func (h *Hist) Snapshot() *HistSnapshot {
	s := new(HistSnapshot)
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.n += s.counts[i]
	}
	s.sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist. Its count is the sum
// of its buckets, so its quantiles, mean and buckets always agree.
// Snapshots of several histograms merge with Add.
type HistSnapshot struct {
	counts [histBuckets]int64
	n, sum int64 // sum in µs
}

// N returns the number of observations.
func (s *HistSnapshot) N() int64 { return s.n }

// Add merges o into s, as if o's observations had been recorded into s.
func (s *HistSnapshot) Add(o *HistSnapshot) {
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.n += o.n
	s.sum += o.sum
}

// Mean returns the mean observation (0 when empty).
func (s *HistSnapshot) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.sum/s.n) * time.Microsecond
}

// Quantile returns an upper bound on the p-quantile (nearest rank,
// reported as the containing bucket's upper edge — at most 1/histSub
// above the true value). p is clamped to [0, 1]; empty yields 0.
func (s *HistSnapshot) Quantile(p float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	p = min(max(p, 0), 1)
	rank := min(max(int64(math.Ceil(p*float64(s.n))), 1), s.n)
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return time.Duration(bucketUpper(i)) * time.Microsecond
		}
	}
	return time.Duration(bucketUpper(histBuckets-1)) * time.Microsecond
}

// Buckets lists the non-empty buckets in ascending order as
// [exclusive upper edge in µs, count] pairs.
func (s *HistSnapshot) Buckets() [][2]int64 {
	out := [][2]int64{}
	for i, c := range s.counts {
		if c > 0 {
			out = append(out, [2]int64{bucketUpper(i), c})
		}
	}
	return out
}
