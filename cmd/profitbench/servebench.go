package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"profitmining"
	"profitmining/internal/feedback"
	"profitmining/internal/model"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
)

// serveReport is the schema of the -servebench JSON artifact
// (BENCH_serve.json) consumed by CI. Core numbers come from
// testing.Benchmark / testing.AllocsPerRun over the library hot path;
// the batch latencies are wall-time percentiles over full
// POST /recommend/batch requests through the HTTP handler.
type serveReport struct {
	Dataset    string  `json:"dataset"`
	Txns       int     `json:"txns"`
	Items      int     `json:"items"`
	MinSupport float64 `json:"minSupport"`
	Rules      int     `json:"rules"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	RecommendNsOp         float64 `json:"recommendNsOp"`
	RecommendAllocsOp     float64 `json:"recommendAllocsOp"`
	RecommendTopKNsOp     float64 `json:"recommendTopKNsOp"`
	RecommendTopKAllocsOp float64 `json:"recommendTopKAllocsOp"`

	ServeRecommendNsOp     float64 `json:"serveRecommendNsOp"`
	ServeRecommendAllocsOp float64 `json:"serveRecommendAllocsOp"`

	// The first POST /recommend after a fresh promotion, median over
	// Promotions promotions, and the gate it is held to:
	// firstRecommendGate times the warm ServeRecommendNsOp.
	Promotions           int     `json:"promotions"`
	FirstRecommendNs     float64 `json:"firstRecommendNs"`
	FirstRecommendGateNs float64 `json:"firstRecommendGateNs"`
	FirstRecommendPassed bool    `json:"firstRecommendPassed"`

	BatchBaskets  int     `json:"batchBaskets"`
	BatchRequests int     `json:"batchRequests"`
	BatchP50Ms    float64 `json:"batchP50Ms"`
	BatchP99Ms    float64 `json:"batchP99Ms"`

	AllocBudget      float64 `json:"allocBudget"`
	AllocGuardPassed bool    `json:"allocGuardPassed"`
}

// batchSize is how many baskets each measured /recommend/batch request
// carries.
const batchSize = 64

// promotions is how many fresh promotions the first-request probe
// times; the report keeps their median.
const promotions = 9

// firstRecommendGate caps the first /recommend after a promotion at
// this multiple of the warm request time. Promotion leaves no O(model)
// work for the request path, so only cold CPU caches set the two apart
// (measured 3-4x); any per-model work left to the first request, such
// as building a response cache, costs hundreds of warm requests.
const firstRecommendGate = 20

// runServeBench builds one model, benchmarks the recommend hot path and
// the serving endpoint, and writes BENCH_serve.json. The core hot path
// (Recommend, RecommendTopKInto with pooled scratch) is held to an
// allocation budget of zero; exceeding it is a hard failure (exit 1) so
// CI catches regressions that reintroduce per-call garbage.
func runServeBench(name string, txns, items int, minsup float64, maxLen int, seed int64, requests int, out string) {
	ds := genDataset(name, txns, items, seed)
	rec, err := profitmining.Build(ds, profitmining.Options{
		MinSupport: minsup,
		MaxBodyLen: maxLen,
	})
	if err != nil {
		fail(err)
	}

	baskets := probeBaskets(ds, 256)
	if len(baskets) == 0 {
		fail(fmt.Errorf("servebench: dataset produced no non-empty baskets"))
	}

	rep := serveReport{
		Dataset:       name,
		Txns:          txns,
		Items:         items,
		MinSupport:    minsup,
		Rules:         rec.Stats().RulesFinal,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		BatchBaskets:  batchSize,
		BatchRequests: requests,
		AllocBudget:   0,
	}

	// Core hot path: ns/op via the testing harness, allocations via
	// AllocsPerRun (which warms up and pins GOMAXPROCS to 1, matching
	// the 0-alloc guard test in internal/core).
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Recommend(baskets[i%len(baskets)])
		}
	})
	rep.RecommendNsOp = float64(r.NsPerOp())
	rep.RecommendAllocsOp = allocsPerOp(r)

	var topKDst []profitmining.Recommendation
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topKDst = rec.RecommendTopKInto(topKDst, baskets[i%len(baskets)], 5)
		}
	})
	rep.RecommendTopKNsOp = float64(r.NsPerOp())
	rep.RecommendTopKAllocsOp = allocsPerOp(r)

	// The steady-state allocation guard. AllocsPerRun reports the
	// average over its runs, so any per-call allocation shows up ≥ 1.
	guard := testing.AllocsPerRun(200, func() {
		for _, bk := range baskets {
			rec.Recommend(bk)
			topKDst = rec.RecommendTopKInto(topKDst, bk, 5)
		}
	})
	rep.AllocGuardPassed = guard <= rep.AllocBudget

	// Serving path: one POST /recommend through the handler per op. One
	// untimed sweep over the payloads first, so whatever the first
	// requests build or fault in is not timed as the steady-state cost.
	handler := serve.New(ds.Catalog, rec).Handler()
	payloads := jsonPayloads(ds.Catalog, baskets)
	for _, p := range payloads {
		serveOnce(nil, handler, "/recommend", p)
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serveOnce(b, handler, "/recommend", payloads[i%len(payloads)])
		}
	})
	rep.ServeRecommendNsOp = float64(r.NsPerOp())
	rep.ServeRecommendAllocsOp = allocsPerOp(r)

	rep.Promotions = promotions
	rep.FirstRecommendNs = firstRecommendNs(ds.Catalog, rec, payloads[0])
	rep.FirstRecommendGateNs = firstRecommendGate * rep.ServeRecommendNsOp
	rep.FirstRecommendPassed = rep.FirstRecommendNs <= rep.FirstRecommendGateNs

	// Batch latency percentiles: `requests` full /recommend/batch round
	// trips of batchSize baskets each, timed individually.
	batchBody := batchPayload(ds.Catalog, baskets, batchSize)
	times := make([]float64, 0, requests)
	for i := 0; i < requests; i++ {
		start := time.Now()
		serveOnce(nil, handler, "/recommend/batch", batchBody)
		times = append(times, float64(time.Since(start).Microseconds())/1e3)
	}
	sort.Float64s(times)
	rep.BatchP50Ms = percentile(times, 0.50)
	rep.BatchP99Ms = percentile(times, 0.99)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("servebench: dataset %s |T|=%d |I|=%d minsup %g, %d rules\n",
		name, txns, items, minsup, rep.Rules)
	fmt.Printf("servebench: Recommend %.0f ns/op (%.2f allocs/op), TopK %.0f ns/op (%.2f allocs/op)\n",
		rep.RecommendNsOp, rep.RecommendAllocsOp, rep.RecommendTopKNsOp, rep.RecommendTopKAllocsOp)
	fmt.Printf("servebench: ServeRecommend %.0f ns/op (%.1f allocs/op); batch[%d] p50 %.2fms p99 %.2fms; report: %s\n",
		rep.ServeRecommendNsOp, rep.ServeRecommendAllocsOp, batchSize, rep.BatchP50Ms, rep.BatchP99Ms, out)
	fmt.Printf("servebench: first /recommend after promotion %.0f ns (median of %d; gate %.0f ns = %dx warm)\n",
		rep.FirstRecommendNs, promotions, rep.FirstRecommendGateNs, firstRecommendGate)
	if !rep.AllocGuardPassed {
		fail(fmt.Errorf("servebench: hot path allocated %.2f allocs per probe sweep (budget %.0f)", guard, rep.AllocBudget))
	}
	fmt.Println("servebench: hot path within allocation budget (0 allocs/op)")
	if !rep.FirstRecommendPassed {
		fail(fmt.Errorf("servebench: first /recommend after promotion took %.0f ns, over the %.0f ns gate", rep.FirstRecommendNs, rep.FirstRecommendGateNs))
	}
	fmt.Println("servebench: first request after promotion within gate")
}

// firstRecommendNs promotes rec into a fresh registry-backed server
// promotions times and returns the median time of the first /recommend
// served after each promotion. The promotions themselves are not timed.
func firstRecommendNs(cat *profitmining.Catalog, rec *profitmining.Recommender, payload []byte) float64 {
	fb, _, err := feedback.Open(feedback.Config{})
	if err != nil {
		fail(err)
	}
	defer fb.Close()
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		fail(err)
	}
	handler := serve.NewRegistry(reg, nil, fb).Handler()
	times := make([]float64, 0, promotions)
	for i := 0; i < promotions; i++ {
		if _, _, err := reg.Submit(cat, rec, fmt.Sprintf("promotion %d", i), ""); err != nil {
			fail(err)
		}
		start := time.Now()
		serveOnce(nil, handler, "/recommend", payload)
		times = append(times, float64(time.Since(start).Nanoseconds()))
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// probeBaskets extracts up to n deterministic probe baskets (the
// non-target sales of the dataset's own transactions).
func probeBaskets(ds *profitmining.Dataset, n int) []profitmining.Basket {
	var out []profitmining.Basket
	for _, txn := range ds.Transactions {
		if len(txn.NonTarget) == 0 {
			continue
		}
		out = append(out, profitmining.Basket(txn.NonTarget))
		if len(out) == n {
			break
		}
	}
	return out
}

// saleReq / recReq / batchReq mirror the serve package's JSON request
// shapes (items by name, promotion codes by per-item index).
type saleReq struct {
	Item    string  `json:"item"`
	PromoIx int     `json:"promoIx"`
	Qty     float64 `json:"qty,omitempty"`
}

type recReq struct {
	Basket []saleReq `json:"basket"`
	K      int       `json:"k,omitempty"`
}

type batchReq struct {
	Baskets []recReq `json:"baskets"`
}

func toRecReq(cat *profitmining.Catalog, bk profitmining.Basket, k int) recReq {
	req := recReq{K: k}
	for _, sl := range bk {
		req.Basket = append(req.Basket, saleReq{
			Item:    cat.Item(sl.Item).Name,
			PromoIx: promoIndex(cat, sl),
			Qty:     sl.Qty,
		})
	}
	return req
}

func promoIndex(cat *profitmining.Catalog, sl model.Sale) int {
	for i, p := range cat.Promos(sl.Item) {
		if p == sl.Promo {
			return i
		}
	}
	return 0
}

func jsonPayloads(cat *profitmining.Catalog, baskets []profitmining.Basket) [][]byte {
	out := make([][]byte, len(baskets))
	for i, bk := range baskets {
		data, err := json.Marshal(toRecReq(cat, bk, 2))
		if err != nil {
			fail(err)
		}
		out[i] = data
	}
	return out
}

func batchPayload(cat *profitmining.Catalog, baskets []profitmining.Basket, size int) []byte {
	var req batchReq
	for i := 0; i < size; i++ {
		req.Baskets = append(req.Baskets, toRecReq(cat, baskets[i%len(baskets)], 2))
	}
	data, err := json.Marshal(req)
	if err != nil {
		fail(err)
	}
	return data
}

// serveOnce pushes one request through the handler in-process (no
// network, no client) and fails hard on a non-200 response.
func serveOnce(b *testing.B, h http.Handler, path string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		err := fmt.Errorf("servebench: %s returned %d: %s", path, w.Code, w.Body.Bytes())
		if b != nil {
			b.Fatal(err)
		}
		fail(err)
	}
}

func allocsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.MemAllocs) / float64(r.N)
}

// percentile returns the p-quantile of ascending xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
