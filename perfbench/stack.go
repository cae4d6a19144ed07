package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"profitmining"
	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/model"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
	"profitmining/internal/simload"
)

// spanHeader carries the client's span id to the server-side wrapper,
// so the server span of a request is a child of its client span.
const spanHeader = "X-Bench-Span"

// stack is one serving process as profitserve wires it: a feedback
// collector with a WAL, a registry promoting into it, and the HTTP
// handler on a loopback listener.
type stack struct {
	tr     *tracer
	walDir string
	fb     *feedback.Collector
	reg    *registry.Registry
	ts     *httptest.Server
	hc     *http.Client
	alarms atomic.Int64

	// submitSpan is the span of the registry call in progress, the
	// parent of the OnPromote span it triggers.
	submitSpan atomic.Int64

	// retain keeps each promoted snapshot in snaps while set. Answers
	// are checked against the snapshot that served them, but a server
	// drops a superseded model, so the run clears it once no answer it
	// keeps can come from a later one.
	retain atomic.Bool
	mu     sync.Mutex
	snaps  map[int]*registry.Snapshot // promoted versions, while retain is set
}

// newStack starts a serving stack with its WAL in a fresh directory
// under tmpRoot. Nothing is promoted yet.
func newStack(tr *tracer, tmpRoot string, workers int) (*stack, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, fmt.Errorf("temp root: %w", err)
	}
	dir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	st := &stack{tr: tr, walDir: dir, snaps: make(map[int]*registry.Snapshot)}
	st.retain.Store(true)
	tr.do("feedback", "Open", 0, func(int) {
		st.fb, _, err = feedback.Open(feedback.Config{
			Dir:     dir,
			WAL:     feedback.WALOptions{SyncEvery: 0},
			OnDrift: func() { st.alarms.Add(1) },
		})
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("feedback: %w", err)
	}
	st.reg, err = registry.New(registry.Options{OnPromote: st.onPromote})
	if err != nil {
		st.fb.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("registry: %w", err)
	}
	h := serve.NewRegistry(st.reg, nil, st.fb).Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	st.ts = httptest.NewServer(h)
	st.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
	return st, nil
}

// onPromote is the registry's OnPromote hook: it registers the snapshot
// with the feedback collector, as profitserve does, and, while retain is
// set, keeps it so answers can be checked against the version that
// served them.
func (st *stack) onPromote(snap *registry.Snapshot) {
	id := st.tr.begin("serve", "RegisterSnapshot", int(st.submitSpan.Load()), 0)
	serve.RegisterSnapshot(st.fb, snap)
	st.tr.end(id)
	if st.retain.Load() {
		st.mu.Lock()
		st.snaps[snap.Version] = snap
		st.mu.Unlock()
	}
}

// snapshot returns promoted version v (nil if unknown).
func (st *stack) snapshot(v int) *registry.Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snaps[v]
}

// submit hands a candidate to the registry inside a span.
func (st *stack) submit(cat *model.Catalog, rec *core.Recommender, source, hash string, parent int) (*registry.Snapshot, error) {
	id := st.tr.begin("registry", "Submit", parent, 0)
	st.submitSpan.Store(int64(id))
	snap, outcome, err := st.reg.Submit(cat, rec, source, hash)
	st.submitSpan.Store(0)
	st.tr.end(id)
	if err != nil {
		return nil, err
	}
	if outcome != registry.Promoted {
		return nil, fmt.Errorf("submit %s: outcome %s, want promoted", source, outcome)
	}
	return snap, nil
}

// close stops the server, closes the collector and removes the WAL.
func (st *stack) close() error {
	st.ts.Close()
	st.hc.CloseIdleConnections()
	var err error
	st.tr.do("feedback", "Close", 0, func(int) { err = st.fb.Close() })
	if rerr := os.RemoveAll(st.walDir); err == nil {
		err = rerr
	}
	return err
}

// tracedHandler records a server-side span around every request, as a
// child of the client span named in spanHeader.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent on untraced callers: a root span
		id := tr.begin("serve", r.URL.Path, parent, 0)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// recAnswer is the part of a /recommend response the benchmark reads.
type recAnswer struct {
	Recommendations []struct {
		Item    string `json:"item"`
		PromoIx int    `json:"promoIx"`
		RuleID  string `json:"ruleID"`
	} `json:"recommendations"`
	ModelVersion int `json:"modelVersion"`
}

// post sends one JSON request inside a client span and returns the
// response body of a 200.
func (st *stack) post(path string, body []byte, trace int64) ([]byte, error) {
	id := st.tr.begin("loadgen", "POST "+path, 0, trace)
	defer st.tr.end(id)
	req, err := http.NewRequest(http.MethodPost, st.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := st.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// recommend posts a basket and decodes the answer.
func (st *stack) recommend(payload []byte, trace int64) (*recAnswer, error) {
	body, err := st.post("/recommend", payload, trace)
	if err != nil {
		return nil, err
	}
	var a recAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decode /recommend: %w", err)
	}
	return &a, nil
}

type outcomeReq struct {
	RequestID    string `json:"requestID"`
	RuleID       string `json:"ruleID"`
	ModelVersion int    `json:"modelVersion"`
	Bought       bool   `json:"bought"`
}

// outcome reports what the customer did with a recommendation.
func (st *stack) outcome(o outcomeReq, trace int64) error {
	body, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = st.post("/outcome", body, trace)
	return err
}

// traffic is the request mix: simload's population shops baskets from
// its home cell's transactions, 20% of requests ask for k=5 and the rest
// for k=1, and the buy model decides every outcome.
type traffic struct {
	ds  *profitmining.Dataset
	pop *simload.Population
	buy *simload.BuyModel
	k5  [][]byte // population payloads rewritten to ask for k=5
}

// trafficUsers is the size of the simulated population.
const trafficUsers = 10000

// topKShare is the share of requests that ask for k=5.
const topKShare = 0.2

func newTraffic(ds *profitmining.Dataset, truth *datagen.GroundTruth) (*traffic, error) {
	pop, err := simload.NewPopulation(ds, truth, trafficUsers)
	if err != nil {
		return nil, err
	}
	buy, err := simload.NewBuyModel(truth)
	if err != nil {
		return nil, err
	}
	k5 := make([][]byte, len(pop.Payloads))
	for i, p := range pop.Payloads {
		if p == nil {
			continue
		}
		q := bytes.Replace(p, []byte(`"k":1}`), []byte(`"k":5}`), 1)
		if bytes.Equal(p, q) {
			return nil, fmt.Errorf("payload %d does not end in k=1: %s", i, p)
		}
		k5[i] = q
	}
	return &traffic{ds: ds, pop: pop, buy: buy, k5: k5}, nil
}

// request is one scheduled /recommend and the draw that decides its
// outcome.
type request struct {
	txn  int
	cell int
	topK bool
	u    float64
}

// schedule draws n requests from the population.
func (tf *traffic) schedule(rng *rand.Rand, n int) []request {
	out := make([]request, n)
	for i := range out {
		cell := tf.pop.HomeCell[rng.Intn(len(tf.pop.HomeCell))]
		pool := tf.pop.CellTxns[cell]
		out[i] = request{
			txn:  pool[rng.Intn(len(pool))],
			cell: cell,
			topK: rng.Float64() < topKShare,
			u:    rng.Float64(),
		}
	}
	return out
}

func (tf *traffic) payload(r request) []byte {
	if r.topK {
		return tf.k5[r.txn]
	}
	return tf.pop.Payloads[r.txn]
}

// basket decodes transaction txn's basket against cat the way the
// server decodes a request: items by name, promotions by index.
func (tf *traffic) basket(cat *model.Catalog, txn int) (model.Basket, error) {
	var b model.Basket
	for _, sl := range tf.ds.Transactions[txn].NonTarget {
		name := tf.ds.Catalog.Item(sl.Item).Name
		item, ok := cat.ItemByName(name)
		if !ok {
			return nil, fmt.Errorf("item %q missing from the snapshot catalog", name)
		}
		ix := core.PromoIndex(tf.ds.Catalog, sl.Item, sl.Promo)
		promos := cat.Promos(item)
		if ix < 0 || ix >= len(promos) {
			return nil, fmt.Errorf("item %q has no promo %d in the snapshot catalog", name, ix)
		}
		qty := sl.Qty
		if qty == 0 { //lint:allow floatcmp -- the server's "quantity absent" sentinel, mirrored exactly
			qty = 1
		}
		b = append(b, model.Sale{Item: item, Promo: promos[ix], Qty: qty})
	}
	return b, nil
}
