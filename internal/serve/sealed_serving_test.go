package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// sealModel seals a heap model and reopens the image: the pair a
// registry snapshot carries.
func sealModel(t *testing.T, cat *model.Catalog, rec *core.Recommender) (*model.Catalog, *core.Recommender) {
	t.Helper()
	img, err := modelio.Seal(cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	sCat, sRec, err := modelio.LoadBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	return sCat, sRec
}

// groceryHeap builds the grocery heap model the serving tests share.
func groceryHeap(t *testing.T) (*datagen.Grocery, *core.Recommender) {
	t.Helper()
	g := datagen.NewGrocery(1000, 3)
	space, err := g.Builder.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, rec
}

// TestServedBytesMatchHeapEncoding is the reference for the one serving
// representation: a server built over a heap model (sealed inside
// Submit) answers a randomized basket stream, single and batch, with
// exactly the bytes the heap recommender and the wire encoder produce.
// It also pins what Submit does to each representation: a heap
// candidate becomes the image modelio.Seal renders, and a sealed
// candidate is served as given.
func TestServedBytesMatchHeapEncoding(t *testing.T) {
	g, heap := groceryHeap(t)
	cat := g.Dataset.Catalog
	ts := httptest.NewServer(New(cat, heap).Handler())
	defer ts.Close()

	var nonTarget []model.ItemID
	for _, it := range cat.Items() {
		if !it.Target {
			nonTarget = append(nonTarget, it.ID)
		}
	}
	rng := rand.New(rand.NewSource(7))
	draw := func() (recommendRequest, model.Basket, int) {
		var req recommendRequest
		var basket model.Basket
		for n := rng.Intn(4); n > 0; n-- {
			item := nonTarget[rng.Intn(len(nonTarget))]
			promos := cat.Promos(item)
			ix := rng.Intn(len(promos))
			qty := float64(1 + rng.Intn(3))
			req.Basket = append(req.Basket, saleJSON{Item: cat.Item(item).Name, PromoIx: ix, Qty: qty})
			basket = append(basket, model.Sale{Item: item, Promo: promos[ix], Qty: qty})
		}
		req.K = 1 + rng.Intn(5)
		return req, basket, req.K
	}
	heapRecs := func(basket model.Basket, k int) []json.RawMessage {
		var out []json.RawMessage
		for _, r := range heap.RecommendTopK(basket, k) {
			out = append(out, core.MarshalWire(cat, heap, r))
		}
		return out
	}
	post := func(path string, v any) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(mustMarshal(t, v)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	for i := 0; i < 200; i++ {
		req, basket, k := draw()
		want := mustEncode(t, recommendResponse{Recommendations: heapRecs(basket, k), ModelVersion: 1})
		if got := string(post("/recommend", req)); got != want {
			t.Fatalf("request %d (%+v):\n got %s\nwant %s", i, req, got, want)
		}
	}
	for i := 0; i < 20; i++ {
		var req batchRequest
		var results []batchResult
		for n := 1 + rng.Intn(16); n > 0; n-- {
			one, basket, k := draw()
			req.Baskets = append(req.Baskets, one)
			results = append(results, batchResult{Recommendations: heapRecs(basket, k)})
		}
		want := mustEncode(t, batchResponse{Results: results, ModelVersion: 1})
		if got := string(post("/recommend/batch", req)); got != want {
			t.Fatalf("batch %d:\n got %s\nwant %s", i, got, want)
		}
	}

	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := reg.Submit(cat, heap, "heap", "")
	if err != nil {
		t.Fatal(err)
	}
	wantImg, err := modelio.Seal(cat, heap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Rec.Sealed().Arena().Bytes(), wantImg) {
		t.Error("Submit(heap) serves an image other than modelio.Seal's")
	}
	sCat, sRec := sealModel(t, cat, heap)
	snap, _, err = reg.Submit(sCat, sRec, "sealed", "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rec.Sealed() != sRec.Sealed() || snap.Cat != sCat {
		t.Error("Submit(sealed) did not serve the candidate as given")
	}
}

// TestRegisterSnapshotZeroBodyCount: a rule whose body never occurred
// has confidence 0, not 0/0. A NaN projection would fail the durable
// collector's JSON journal, leave the model unregistered, and answer
// every /outcome for it with 422.
func TestRegisterSnapshotZeroBodyCount(t *testing.T) {
	g, heap := groceryHeap(t)
	final := make(map[string]bool)
	for _, r := range heap.Rules() {
		final[heap.RuleID(r)] = true
	}
	var zeroed string
	for _, r := range heap.Alternates() {
		if id := heap.RuleID(r); !final[id] {
			r.BodyCount, r.HitCount = 0, 0
			zeroed = id
			break
		}
	}
	if zeroed == "" {
		t.Fatal("model has no alternate outside the final rules")
	}

	fb, _, err := feedback.Open(feedback.Config{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Submit(g.Dataset.Catalog, heap, "zeroed", "h"); err != nil {
		t.Fatal(err)
	}
	_, err = fb.Record(feedback.Outcome{RuleID: zeroed, ModelVersion: 1})
	if errors.Is(err, feedback.ErrUnknownRule) {
		t.Fatal("the model with a zero-count rule was never registered")
	}
	if err != nil {
		t.Fatal(err)
	}
}
