package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts observations in equal-width bins over [Min, Max].
// Observations outside the range are clamped into the first/last bin, so
// the total count always equals the number of Add calls.
type Histogram struct {
	Min, Max float64
	Counts   []int64
	n        int64
}

// NewHistogram creates a histogram with the given number of bins over
// [min, max]. bins must be positive and min < max.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || !(min < max) {
		panic(fmt.Sprintf("stats: NewHistogram(%g, %g, %d) out of domain", min, max, bins))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	idx := int(float64(len(h.Counts)) * (v - h.Min) / (h.Max - h.Min))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.n++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// String renders the histogram as an ASCII bar chart, one bin per line.
func (h *Histogram) String() string {
	var max int64
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if max > 0 {
			bar = int(math.Round(40 * float64(c) / float64(max)))
		}
		fmt.Fprintf(&b, "%10.3f | %-40s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Summary holds simple descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
}

// Summarize computes descriptive statistics of vs (which it does not
// modify). An empty sample yields a zero Summary.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, v := range sorted {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	mid := len(sorted) / 2
	median := sorted[mid]
	if len(sorted)%2 == 0 {
		median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Median: median,
		Max:    sorted[len(sorted)-1],
	}
}
