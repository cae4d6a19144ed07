package serve

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// Concurrent requests across several endpoints: the aggregate histogram
// total, the per-endpoint histogram totals, and the per-endpoint request
// counters must all agree, and every histogram's buckets must be
// well-formed and add up.
// Run under -race this also proves the recording path is data-race free.
func TestLatencyHistogramConcurrent(t *testing.T) {
	_, ts := newTestServer(t)

	const (
		workers = 8
		perEp   = 25
	)
	paths := []string{"/healthz", "/version", "/metrics", "/rules?limit=1"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEp; i++ {
				for _, p := range paths {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body) //lint:allow droppederr -- draining a test response body
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	// The histogram add lands after the response is written, so a client
	// can observe its response an instant before the server finishes
	// recording it. All requests above have returned, so the counters are
	// final; poll /metrics until the histograms catch up to them.
	var body map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = getJSON(t, ts.URL+"/metrics")
		settled := true
		byEp := body["latencyByEndpoint"].(map[string]any)
		reqs := body["requests"].(map[string]any)
		for ep, v := range byEp {
			if ep == "/metrics" {
				continue // the in-flight scrape itself
			}
			if int64(v.(map[string]any)["count"].(float64)) != int64(reqs[ep].(float64)) {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	lat := body["latency"].(map[string]any)
	byEp := body["latencyByEndpoint"].(map[string]any)
	reqs := body["requests"].(map[string]any)

	aggregate := int64(lat["count"].(float64))
	var epTotal int64
	for ep, v := range byEp {
		m := v.(map[string]any)
		count := int64(m["count"].(float64))
		epTotal += count
		// /metrics observes itself mid-request: its own histogram add
		// happens after the response is written, so its count may trail
		// the request counter by exactly the in-flight scrape.
		want := int64(reqs[ep].(float64))
		if ep == "/metrics" {
			if count != want && count != want-1 {
				t.Errorf("%s: histogram count %d, request counter %d (allowed lag 1)", ep, count, want)
			}
			continue
		}
		if count != want {
			t.Errorf("%s: histogram count %d != request counter %d", ep, count, want)
		}
		for _, q := range []string{"p50Ms", "p95Ms", "p99Ms"} {
			qv, ok := m[q].(float64)
			if !ok || qv < 0 {
				t.Errorf("%s: bad %s: %v", ep, q, m[q])
			}
		}
		p50, p99 := m["p50Ms"].(float64), m["p99Ms"].(float64)
		if p99 < p50 {
			t.Errorf("%s: p99 %g below p50 %g", ep, p99, p50)
		}
	}
	if aggregate != epTotal {
		t.Errorf("aggregate latency count %d != sum of per-endpoint counts %d", aggregate, epTotal)
	}

	// Every histogram, aggregate and per endpoint, lists strictly
	// ascending bucket edges whose counts sum to its count, and the
	// aggregate's buckets are the element-wise sum of the endpoints'.
	summed := map[int64]int64{}
	for ep, v := range byEp {
		for edge, c := range checkBuckets(t, ep, v.(map[string]any)) {
			summed[edge] += c
		}
	}
	agg := checkBuckets(t, "aggregate", lat)
	if len(agg) != len(summed) {
		t.Errorf("aggregate has %d non-empty buckets, the endpoints %d", len(agg), len(summed))
	}
	for edge, c := range summed {
		if agg[edge] != c {
			t.Errorf("aggregate bucket %dus = %d, endpoints sum to %d", edge, agg[edge], c)
		}
	}
	// The buckets resolve microseconds, and a health check answers in
	// far less than half a millisecond.
	if p50 := byEp["/healthz"].(map[string]any)["p50Ms"].(float64); p50 <= 0 || p50 >= 0.5 {
		t.Errorf("/healthz p50Ms = %g, want a measured value in (0, 0.5)", p50)
	}

	for _, ep := range []string{"/healthz", "/version", "/rules"} {
		if got := int64(reqs[ep].(float64)); got != workers*perEp {
			t.Errorf("%s request counter = %d, want %d", ep, got, int64(workers*perEp))
		}
	}
}

// checkBuckets checks one rendered histogram's buckets — edges strictly
// ascending, counts positive and summing to the histogram's count — and
// returns them keyed by upper edge (µs).
func checkBuckets(t *testing.T, name string, h map[string]any) map[int64]int64 {
	t.Helper()
	out := map[int64]int64{}
	var sum, last int64
	for _, b := range h["buckets"].([]any) {
		pair := b.([]any)
		edge, c := int64(pair[0].(float64)), int64(pair[1].(float64))
		if edge <= last || c <= 0 {
			t.Errorf("%s: bucket [%d, %d] after edge %d: edges must strictly ascend, counts be positive", name, edge, c, last)
		}
		last = edge
		sum += c
		out[edge] = c
	}
	if n := int64(h["count"].(float64)); sum != n {
		t.Errorf("%s: buckets sum to %d, count is %d", name, sum, n)
	}
	return out
}
