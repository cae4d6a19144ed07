// Package serve exposes a built recommender as a small JSON-over-HTTP
// scoring service (stdlib net/http only): the deployment surface for the
// models produced by this library. Baskets reference items by name and
// promotion codes by their index within the item, matching the model-file
// format of internal/modelio.
//
// The model is read through an internal/registry snapshot taken once per
// request — a lock-free atomic load — so the registry can hot-swap
// versions under live traffic without a request ever observing a torn
// (catalog, recommender) pair. Every snapshot is sealed (the registry
// seals heap candidates at Submit), so responses splice the sealed
// image's pre-marshaled recommendation blobs. Every model-derived
// response carries the serving version in the X-Model-Version header.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/feedback"
	"profitmining/internal/model"
	"profitmining/internal/par"
	"profitmining/internal/registry"
	"profitmining/internal/stats"
)

// maxRecommendBody caps the size of a POST /recommend request. Baskets
// are small (a few sales); 1 MiB is orders of magnitude above any
// legitimate request while keeping a misbehaving client from streaming
// an unbounded body into the decoder.
const maxRecommendBody = 1 << 20

// maxBatchBody caps the size of a POST /recommend/batch request: room
// for maxBatchBaskets worth of generously sized baskets.
const maxBatchBody = 8 << 20

// maxBatchBaskets caps the number of baskets a single batch request may
// carry — the unit of fan-out, and therefore of per-request memory.
const maxBatchBaskets = 1024

// maxOutcomeBody caps a POST /outcome request: a single flat object of
// six short fields.
const maxOutcomeBody = 64 << 10

// versionHeader names the response header carrying the model version
// that served the request.
const versionHeader = "X-Model-Version"

// endpoints is the fixed route set, used to key the per-endpoint
// request counters and latency histograms.
var endpoints = []string{"/healthz", "/catalog", "/rules", "/recommend", "/recommend/batch", "/outcome", "/feedback/stats", "/metrics", "/version", "/admin/reload"}

// Reloader triggers one registry poll outside the watch loop — the
// POST /admin/reload hook. A nil snapshot with Unchanged means the
// model file has not changed.
type Reloader func() (*registry.Snapshot, registry.Outcome, error)

// Server wraps a model registry with HTTP handlers. The hot path takes
// one atomic snapshot load per request, and the counters and latency
// histograms are lock-free, so a single instance serves concurrent
// requests.
type Server struct {
	reg    *registry.Registry
	reload Reloader            // nil: /admin/reload answers 501
	fb     *feedback.Collector // never nil: NewRegistry defaults to in-memory

	recommendations atomic.Int64
	badRequests     atomic.Int64
	draining        atomic.Bool               // set by StartDrain; health answers 503
	eps             map[string]*endpointStats // fixed key set
}

// endpointStats is one route's hit counter and request latency.
type endpointStats struct {
	requests atomic.Int64
	latency  stats.Hist
}

// New creates a Server over a fixed (catalog, recommender) pair — the
// single-model deployment without hot swap. The pair still goes through
// the registry's validation gate (and is sealed there if it is a heap
// model); New panics if it fails, since a fixed deployment has no old
// version to fall back to and serving it would 500 every request
// anyway.
func New(cat *model.Catalog, rec *core.Recommender) *Server {
	fb, _, err := feedback.Open(feedback.Config{})
	if err != nil {
		panic(fmt.Sprintf("serve: %v", err))
	}
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		panic(fmt.Sprintf("serve: %v", err))
	}
	if _, _, err := reg.Submit(cat, rec, "static", ""); err != nil {
		panic(fmt.Sprintf("serve: invalid model: %v", err))
	}
	return NewRegistry(reg, nil, fb)
}

// NewRegistry creates a Server that reads its model through reg on
// every request. reload, when non-nil, backs POST /admin/reload. fb is
// the outcome collector backing /outcome and /feedback/stats; nil gets
// an in-memory collector, but then the registry must have been built
// with an OnPromote hook feeding it (or /outcome will reject every
// report as unknown) — callers that care wire both, as cmd/profitserve
// and New do.
func NewRegistry(reg *registry.Registry, reload Reloader, fb *feedback.Collector) *Server {
	if fb == nil {
		var err error
		if fb, _, err = feedback.Open(feedback.Config{}); err != nil {
			panic(fmt.Sprintf("serve: %v", err))
		}
	}
	s := &Server{
		reg:    reg,
		reload: reload,
		fb:     fb,
		eps:    make(map[string]*endpointStats, len(endpoints)),
	}
	for _, ep := range endpoints {
		s.eps[ep] = new(endpointStats)
	}
	return s
}

// Handler returns the HTTP routes:
//
//	GET  /healthz      — liveness plus model size
//	GET  /catalog      — items and promotion codes
//	GET  /rules?limit  — final rules in MPF rank order
//	POST /recommend    — score a basket (optionally top-K)
//	POST /recommend/batch — score many baskets in one request
//	POST /outcome      — report what the customer did with a recommendation
//	GET  /feedback/stats — realized-profit accounting and drift state
//	GET  /metrics      — counters and request-latency histograms
//	GET  /version      — active model version, hash, staged candidate, shadow stats
//	POST /admin/reload — poll the model file now (501 without a reloader)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.health))
	mux.HandleFunc("/catalog", s.instrument("/catalog", s.catalog))
	mux.HandleFunc("/rules", s.instrument("/rules", s.rules))
	mux.HandleFunc("/recommend", s.instrument("/recommend", s.recommend))
	mux.HandleFunc("/recommend/batch", s.instrument("/recommend/batch", s.recommendBatch))
	mux.HandleFunc("/outcome", s.instrument("/outcome", s.outcome))
	mux.HandleFunc("/feedback/stats", s.instrument("/feedback/stats", s.feedbackStats))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.metrics))
	mux.HandleFunc("/version", s.instrument("/version", s.version))
	mux.HandleFunc("/admin/reload", s.instrument("/admin/reload", s.adminReload))
	return mux
}

// instrument counts the request against its endpoint and records its
// wall-clock latency in the endpoint's histogram. /metrics derives the
// aggregate by merging the endpoint histograms, so a request is
// recorded once.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.eps[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep.requests.Add(1)
		h(w, r)
		ep.latency.Record(time.Since(start))
	}
}

// snapshot returns the active model or answers 503 (nil snapshot means
// the registry has not promoted anything yet). Handlers must call it
// exactly once per request and use only the returned pair, never the
// registry again — that is the no-torn-reads discipline.
func (s *Server) snapshot(w http.ResponseWriter) *registry.Snapshot {
	snap := s.reg.Active()
	if snap == nil {
		s.fail(w, http.StatusServiceUnavailable, "no model loaded yet")
		return nil
	}
	w.Header().Set(versionHeader, strconv.Itoa(snap.Version))
	return snap
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Per-endpoint percentiles let load harnesses (the soak gate in
	// particular) read server-side p99 instead of client-side
	// percentiles that include network time. The aggregate is the merge
	// of the endpoint snapshots, so its buckets are their sum.
	reqs := make(map[string]int64, len(s.eps))
	byEndpoint := make(map[string]latencyJSON, len(s.eps))
	var all stats.HistSnapshot
	for name, ep := range s.eps {
		reqs[name] = ep.requests.Load()
		if snap := ep.latency.Snapshot(); snap.N() > 0 {
			all.Add(snap)
			byEndpoint[name] = newLatencyJSON(snap)
		}
	}

	fbStats := s.fb.Stats(-1)
	fb := map[string]any{
		"outcomes":       fbStats.Outcomes,
		"conversions":    fbStats.Conversions,
		"realizedProfit": fbStats.RealizedProfit,
		"calibration":    fbStats.Calibration,
		"unknownRules":   fbStats.UnknownRules,
		"drifting":       fbStats.Drift.Drifting,
	}
	if bytes, segs, err := s.fb.LogSize(); err == nil {
		fb["walBytes"] = bytes
		fb["walSegments"] = segs
	}

	body := map[string]any{
		"recommendations":   s.recommendations.Load(),
		"badRequests":       s.badRequests.Load(),
		"requests":          reqs,
		"latency":           newLatencyJSON(&all),
		"latencyByEndpoint": byEndpoint,
		"feedback":          fb,
	}
	if snap := s.reg.Active(); snap != nil {
		body["rules"] = snap.Rec.Stats().RulesFinal
		body["modelVersion"] = snap.Version
	}
	writeJSON(w, http.StatusOK, body)
}

// latencyJSON is the /metrics rendering of one latency histogram:
// quantiles are bucket upper edges (at most 1/32 above the true value),
// and buckets lists the non-empty [upper edge µs, count] pairs.
type latencyJSON struct {
	Count   int64      `json:"count"`
	MeanMs  float64    `json:"meanMs"`
	P50Ms   float64    `json:"p50Ms"`
	P95Ms   float64    `json:"p95Ms"`
	P99Ms   float64    `json:"p99Ms"`
	Buckets [][2]int64 `json:"buckets"`
}

func newLatencyJSON(h *stats.HistSnapshot) latencyJSON {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return latencyJSON{
		Count:   h.N(),
		MeanMs:  ms(h.Mean()),
		P50Ms:   ms(h.Quantile(0.50)),
		P95Ms:   ms(h.Quantile(0.95)),
		P99Ms:   ms(h.Quantile(0.99)),
		Buckets: h.Buckets(),
	}
}

// version reports the deployment state: the active snapshot, the staged
// candidate (if any), and its shadow-scoring stats.
func (s *Server) version(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	body := map[string]any{}
	if snap := s.reg.Active(); snap != nil {
		w.Header().Set(versionHeader, strconv.Itoa(snap.Version))
		body["version"] = snap.Version
		body["hash"] = snap.Hash
		body["source"] = snap.Source
		body["loadedAt"] = snap.LoadedAt
		body["rules"] = snap.Rec.Stats().RulesFinal
		body["drift"] = s.fb.Drift()
	}
	if staged := s.reg.Staged(); staged != nil {
		st := map[string]any{
			"version": staged.Version,
			"hash":    staged.Hash,
			"source":  staged.Source,
		}
		if stats, ok := s.reg.ShadowStats(); ok {
			st["shadow"] = map[string]any{
				"sampled":         stats.Sampled,
				"agreed":          stats.Agreed,
				"errors":          stats.Errors,
				"agreementRate":   stats.AgreementRate(),
				"meanProfitDelta": stats.MeanProfitDelta(),
			}
		}
		body["staged"] = st
	}
	if len(body) == 0 {
		s.fail(w, http.StatusServiceUnavailable, "no model loaded yet")
		return
	}
	body["build"] = BuildInfo()
	writeJSON(w, http.StatusOK, body)
}

// adminReload polls the model file immediately instead of waiting for
// the next watch tick.
func (s *Server) adminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.reload == nil {
		s.fail(w, http.StatusNotImplemented, "server is not watching a model file")
		return
	}
	snap, outcome, err := s.reload()
	body := map[string]any{"outcome": outcome.String()}
	if err != nil {
		body["error"] = err.Error()
	}
	if snap != nil {
		body["version"] = snap.Version
		body["hash"] = snap.Hash
	}
	code := http.StatusOK
	if outcome == registry.Rejected {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, body)
}

// saleJSON is one basket line in a scoring request.
type saleJSON struct {
	Item    string  `json:"item"`
	PromoIx int     `json:"promoIx"`
	Qty     float64 `json:"qty"`
}

type recommendRequest struct {
	Basket []saleJSON `json:"basket"`
	K      int        `json:"k,omitempty"`
}

// recommendResponse documents the POST /recommend wire shape. Each
// recommendation is an arena.WireRecommendation, marshaled once at seal
// time into the image's blob pool. The hot path does not encode this
// struct: writeRecommendResponse streams the identical bytes (pinned by
// TestStreamedEnvelopesMatchEncoder).
type recommendResponse struct {
	Recommendations []json.RawMessage `json:"recommendations"`
	ModelVersion    int               `json:"modelVersion"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// StartDrain flips the server into graceful drain: /healthz starts
// answering 503 (with Retry-After) so load balancers and the cluster
// coordinator route new traffic elsewhere, while in-flight and
// still-arriving requests keep being served until the listener closes.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"rules":    snap.Rec.Stats().RulesFinal,
		"items":    snap.Cat.NumItems(),
		"drifting": s.fb.Drifting(),
	})
}

func (s *Server) catalog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	type promoJSON struct {
		PromoIx int     `json:"promoIx"`
		Price   float64 `json:"price"`
		Cost    float64 `json:"cost"`
		Packing float64 `json:"packing"`
	}
	type itemJSON struct {
		Name   string      `json:"name"`
		Target bool        `json:"target"`
		Promos []promoJSON `json:"promos"`
	}
	var items []itemJSON
	for _, it := range snap.Cat.Items() {
		ij := itemJSON{Name: it.Name, Target: it.Target}
		for i, pid := range snap.Cat.Promos(it.ID) {
			p := snap.Cat.Promo(pid)
			ij.Promos = append(ij.Promos, promoJSON{PromoIx: i, Price: p.Price, Cost: p.Cost, Packing: p.Packing})
		}
		items = append(items, ij)
	}
	writeJSON(w, http.StatusOK, map[string]any{"items": items})
}

func (s *Server) rules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.fail(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = v
	}
	type ruleJSON struct {
		ID   string `json:"id"`
		Rule string `json:"rule"`
	}
	// Cap at the real rule count before sizing anything: limit comes off
	// the wire and must not drive an allocation. The final rules lead the
	// sealed rule table in MPF rank order.
	sm := snap.Rec.Sealed()
	rt := sm.Rules()
	if n := sm.Meta().NumFinal; limit > n {
		limit = n
	}
	out := make([]ruleJSON, 0, limit)
	for i := int32(0); int(i) < limit; i++ {
		out = append(out, ruleJSON{ID: rt.ID(i), Rule: rt.String(i)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": out, "total": snap.Rec.Stats().RulesFinal})
}

// readPostJSON is the shared intake discipline for every POST endpoint:
// POST only (405), application/json only (415), a hard body-size cap
// (413), and strict decoding (400). Every rejection counts against
// badRequests. It reports whether dst was populated and the handler
// should proceed.
func (s *Server) readPostJSON(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || ct != "application/json" {
		s.badRequests.Add(1)
		s.fail(w, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		s.badRequests.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.fail(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

func (s *Server) recommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if !s.readPostJSON(w, r, maxRecommendBody, &req) {
		return
	}
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	basket, err := decodeBasket(snap.Cat, req.Basket)
	if err != nil {
		s.badRequests.Add(1)
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	s.recommendations.Add(1)
	k := req.K
	if k <= 0 {
		k = 1
	}
	recs := snap.Rec.RecommendTopK(basket, k)
	rt := snap.Rec.Sealed().Rules()
	var out []json.RawMessage
	for _, rec := range recs {
		out = append(out, rt.Blob(rec.Idx))
	}
	s.shadowScore(snap, req.Basket, recs)
	writeRecommendResponse(w, out, snap.Version)
}

// batchRequest is the POST /recommend/batch payload: independent
// scoring requests answered against one model snapshot.
type batchRequest struct {
	Baskets []recommendRequest `json:"baskets"`
}

// batchResult is one basket's outcome. Exactly one of Recommendations
// and Error is set: a malformed basket fails alone, not the batch.
type batchResult struct {
	Recommendations []json.RawMessage `json:"recommendations,omitempty"`
	Error           string            `json:"error,omitempty"`
}

// batchResponse documents the POST /recommend/batch wire shape;
// writeBatchResponse streams the identical bytes.
type batchResponse struct {
	Results      []batchResult `json:"results"`
	ModelVersion int           `json:"modelVersion"`
}

// recommendBatch scores every basket of the request against a single
// snapshot — one atomic load for the whole batch, so a hot swap midway
// cannot mix model versions within a response. Baskets fan out over a
// bounded worker pool (internal/par); results keep request order
// because each worker writes only its own index. Batch requests do not
// feed shadow scoring: the sampler's stride is calibrated for
// request-sized units.
func (s *Server) recommendBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.readPostJSON(w, r, maxBatchBody, &req) {
		return
	}
	if len(req.Baskets) > maxBatchBaskets {
		s.badRequests.Add(1)
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("batch holds %d baskets; the limit is %d", len(req.Baskets), maxBatchBaskets))
		return
	}
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	resp := batchResponse{
		Results:      make([]batchResult, len(req.Baskets)),
		ModelVersion: snap.Version,
	}
	rt := snap.Rec.Sealed().Rules()
	var scored atomic.Int64
	par.For(par.Workers(0), len(req.Baskets), func(i int) {
		one := &req.Baskets[i]
		basket, err := decodeBasket(snap.Cat, one.Basket)
		if err != nil {
			resp.Results[i].Error = err.Error()
			return
		}
		k := one.K
		if k <= 0 {
			k = 1
		}
		recs := snap.Rec.RecommendTopK(basket, k)
		out := make([]json.RawMessage, 0, len(recs))
		for _, rec := range recs {
			out = append(out, rt.Blob(rec.Idx))
		}
		resp.Results[i].Recommendations = out
		scored.Add(1)
	})
	s.recommendations.Add(scored.Load())
	writeBatchResponse(w, resp.Results, resp.ModelVersion)
}

// outcomeRequest is the POST /outcome payload: what the customer did
// with a previously served recommendation, keyed by the stable rule ID
// the recommendation carried.
type outcomeRequest struct {
	RequestID    string  `json:"requestID"`
	RuleID       string  `json:"ruleID"`
	ModelVersion int     `json:"modelVersion"`
	Bought       bool    `json:"bought"`
	Qty          float64 `json:"qty"`
	PaidPrice    float64 `json:"paidPrice"`
}

// outcome journals a customer-outcome report into the feedback
// collector. 422 flags a ruleID no registered model has served —
// distinct from 400 so clients can tell "my report is malformed" from
// "the rule I am reporting on is gone".
func (s *Server) outcome(w http.ResponseWriter, r *http.Request) {
	var req outcomeRequest
	if !s.readPostJSON(w, r, maxOutcomeBody, &req) {
		return
	}
	if req.RuleID == "" {
		s.badRequests.Add(1)
		s.fail(w, http.StatusBadRequest, "ruleID is required")
		return
	}
	receipt, err := s.fb.Record(feedback.Outcome{
		RequestID:    req.RequestID,
		RuleID:       req.RuleID,
		ModelVersion: req.ModelVersion,
		Bought:       req.Bought,
		Qty:          req.Qty,
		PaidPrice:    req.PaidPrice,
	})
	if err != nil {
		switch {
		case errors.Is(err, feedback.ErrInvalidOutcome):
			s.badRequests.Add(1)
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		case errors.Is(err, feedback.ErrUnknownRule):
			s.badRequests.Add(1)
			s.fail(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, receipt)
}

// feedbackStats reports the realized-profit accounting:
// per-rule and per-model aggregates plus the drift detector state.
// ?limit caps the per-rule list (default 50); totals always cover
// every rule.
func (s *Server) feedbackStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			s.fail(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = v
	}
	writeJSON(w, http.StatusOK, s.fb.Stats(limit))
}

// RegisterSnapshot feeds a freshly promoted snapshot's rule projections
// into the feedback collector — the glue callers hang on
// registry.Options.OnPromote. The sealed rule table lists the final rules
// in MPF order and then the per-item alternates not already among them,
// so the projection list (and therefore the collector's model content
// key) is deterministic for a given model. IDs are cloned out of the
// image: the collector outlives the snapshot, and a zero-copy string
// would dangle once a mapped arena is unmapped on drain.
func RegisterSnapshot(fb *feedback.Collector, snap *registry.Snapshot) {
	rt := snap.Rec.Sealed().Rules()
	projs := make([]feedback.RuleProjection, 0, rt.N())
	for i := int32(0); int(i) < rt.N(); i++ {
		promo := snap.Cat.Promo(model.PromoID(rt.HeadPromo[i]))
		projs = append(projs, feedback.RuleProjection{
			ID:     strings.Clone(rt.ID(i)),
			ProfRe: rt.ProfRe[i],
			Conf:   rt.Conf(i),
			Price:  promo.Price,
			Cost:   promo.Cost,
		})
	}
	if err := fb.RegisterModel(snap.Version, snap.Hash, projs); err != nil {
		log.Printf("serve: registering model v%d with feedback collector: %v", snap.Version, err)
	}
}

// shadowScore replays the request against a staged candidate when the
// registry asks for a sample, comparing top-1 answers and profit. It
// runs after the live response is computed; its cost is bounded by the
// shadow fraction and never touches the response.
func (s *Server) shadowScore(active *registry.Snapshot, wire []saleJSON, activeRecs []core.Recommendation) {
	cand := s.reg.ShadowSnapshot()
	if cand == nil || len(activeRecs) == 0 {
		return
	}
	basket, err := decodeBasket(cand.Cat, wire)
	if err != nil {
		// The candidate cannot even parse a basket the active model
		// served — a strong demotion signal, recorded as an error.
		s.reg.RecordShadow(cand, false, 0, err)
		return
	}
	candRecs := cand.Rec.RecommendTopK(basket, 1)
	if len(candRecs) == 0 {
		s.reg.RecordShadow(cand, false, 0, errors.New("no recommendation"))
		return
	}
	a, c := activeRecs[0], candRecs[0]
	// Compare structurally (names and promo index), since item and promo
	// IDs are private to each snapshot's catalog.
	agreed := active.Cat.Item(a.Item).Name == cand.Cat.Item(c.Item).Name &&
		core.PromoIndex(active.Cat, a.Item, a.Promo) == core.PromoIndex(cand.Cat, c.Item, c.Promo)
	delta := cand.Cat.Promo(c.Promo).Profit() - active.Cat.Promo(a.Promo).Profit()
	s.reg.RecordShadow(cand, agreed, delta, nil)
}

func decodeBasket(cat *model.Catalog, sales []saleJSON) (model.Basket, error) {
	var basket model.Basket
	for i, sj := range sales {
		item, ok := cat.ItemByName(sj.Item)
		if !ok {
			return nil, fmt.Errorf("basket[%d]: unknown item %q", i, sj.Item)
		}
		if cat.Item(item).Target {
			return nil, fmt.Errorf("basket[%d]: %q is a target item; baskets hold non-target sales", i, sj.Item)
		}
		promos := cat.Promos(item)
		if sj.PromoIx < 0 || sj.PromoIx >= len(promos) {
			return nil, fmt.Errorf("basket[%d]: item %q has no promo index %d", i, sj.Item, sj.PromoIx)
		}
		qty := sj.Qty
		if qty == 0 { //lint:allow floatcmp -- exact zero is the "field absent in JSON" sentinel; any explicit quantity is taken literally
			qty = 1
		}
		if qty < 0 {
			return nil, fmt.Errorf("basket[%d]: negative quantity", i)
		}
		basket = append(basket, model.Sale{Item: item, Promo: promos[sj.PromoIx], Qty: qty})
	}
	return basket, nil
}

// retryAfterHint is the Retry-After value attached to every 503: both
// causes (no model promoted yet, draining for shutdown) resolve on the
// order of seconds, and an explicit hint keeps well-behaved clients and
// the cluster coordinator from hot-looping on an unavailable replica.
const retryAfterHint = "1"

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterHint)
	}
	writeJSON(w, code, errorResponse{Error: msg})
}

// bufPool recycles response encode buffers. A batch response can run to
// megabytes; streaming the encode into a pooled buffer keeps the
// per-request garbage at the JSON encoder's own internals instead of a
// fresh full-response byte slice per call.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf is the largest encode buffer returned to the pool.
// Occasional giant batch responses should not pin their high-water-mark
// buffers forever.
const maxPooledBuf = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Encode into a pooled buffer before touching the ResponseWriter so
	// an encoding failure can still become a 500: once WriteHeader runs,
	// the status is gone.
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		log.Printf("serve: encoding %T response: %v", v, err)
		code = http.StatusInternalServerError
		buf.Reset()
		buf.WriteString(`{"error":"internal encoding error"}`)
	}
	writeBuf(w, code, buf)
}

// writeBuf flushes a pooled buffer to the wire and recycles it.
func writeBuf(w http.ResponseWriter, code int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Headers are already on the wire; all that is left is to log.
		log.Printf("serve: writing response: %v", err)
	}
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// appendRecList writes a recommendation list by splicing the sealed
// blobs verbatim. Pushing json.RawMessage through json.Encoder instead
// would re-compact (re-scan) every blob per request — on the profiled
// hot path that re-validation was the single largest cost after the
// rendering it replaced. A nil list encodes as null, matching the
// encoding of the nil slice in the response struct.
func appendRecList(buf *bytes.Buffer, recs []json.RawMessage) {
	if recs == nil {
		buf.WriteString("null")
		return
	}
	buf.WriteByte('[')
	for i, b := range recs {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(b)
	}
	buf.WriteByte(']')
}

// writeRecommendResponse streams the /recommend envelope into a pooled
// buffer: sealed blobs spliced verbatim, only the envelope written per
// request. Byte-identical to encoding recommendResponse.
func writeRecommendResponse(w http.ResponseWriter, recs []json.RawMessage, version int) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"recommendations":`)
	appendRecList(buf, recs)
	buf.WriteString(`,"modelVersion":`)
	buf.WriteString(strconv.Itoa(version))
	buf.WriteString("}\n")
	writeBuf(w, http.StatusOK, buf)
}

// writeBatchResponse streams the /recommend/batch envelope the same
// way. Byte-identical to encoding batchResponse (omitempty semantics:
// a failed basket carries only its error, an empty list only braces).
func writeBatchResponse(w http.ResponseWriter, results []batchResult, version int) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"results":[`)
	for i := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		res := &results[i]
		switch {
		case res.Error != "":
			buf.WriteString(`{"error":`)
			errJSON, err := json.Marshal(res.Error)
			if err != nil {
				errJSON = []byte(`"unencodable error"`)
			}
			buf.Write(errJSON)
			buf.WriteString("}")
		case len(res.Recommendations) == 0:
			buf.WriteString("{}")
		default:
			buf.WriteString(`{"recommendations":`)
			appendRecList(buf, res.Recommendations)
			buf.WriteString("}")
		}
	}
	buf.WriteString(`],"modelVersion":`)
	buf.WriteString(strconv.Itoa(version))
	buf.WriteString("}\n")
	writeBuf(w, http.StatusOK, buf)
}
