package incremental

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// grocerySpec mirrors the registry tests' hierarchy so models built here
// survive a Save/Load round trip.
func grocerySpec() *dataio.HierarchySpec {
	return &dataio.HierarchySpec{
		Concepts: []dataio.ConceptSpec{
			{Name: "Cosmetics"},
			{Name: "Food"},
			{Name: "Meat", Parents: []string{"Food"}},
			{Name: "Bakery", Parents: []string{"Food"}},
		},
		Placements: map[string][]string{
			"Perfume":       {"Cosmetics"},
			"Shampoo":       {"Cosmetics"},
			"FlakedChicken": {"Meat"},
			"Bread":         {"Bakery"},
		},
	}
}

// groceryWorld generates a grocery dataset and its compiled space.
func groceryWorld(t *testing.T, n int, seed int64) (*model.Dataset, *hierarchy.Space) {
	t.Helper()
	g := datagen.NewGrocery(n, seed)
	hb, err := grocerySpec().Builder(g.Dataset.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset, space
}

// saveBytes serializes a model the way every registry surface identifies
// it — the oracle for byte-identity assertions.
func saveBytes(t *testing.T, cat *model.Catalog, rec *core.Recommender) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := modelio.Save(&buf, cat, grocerySpec(), rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealBytes seals a heap model: the image Submit turns every candidate
// into, and so the oracle for what a promoted snapshot serves.
func sealBytes(t *testing.T, cat *model.Catalog, rec *core.Recommender) []byte {
	t.Helper()
	img, err := modelio.Seal(cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// batchBuild is the from-scratch reference the incremental path must
// reproduce byte for byte.
func batchBuild(t *testing.T, space *hierarchy.Space, txns []model.Transaction, opts mining.Options) *core.Recommender {
	t.Helper()
	mined, err := mining.Mine(space, txns, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, txns, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestNewValidation(t *testing.T) {
	ds, space := groceryWorld(t, 300, 3)
	opts := mining.Options{MinSupport: 0.01}

	if _, err := New(nil, ds.Transactions, Config{Mining: opts}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := New(space, nil, Config{Mining: opts}); err == nil {
		t.Error("empty initial window accepted")
	}
	if _, err := New(space, ds.Transactions, Config{Mining: opts, Capacity: 100}); err == nil {
		t.Error("initial window exceeding capacity accepted")
	}
	// Profit-only pruning filters candidates by a float accumulator,
	// which cannot be delta-maintained; the stream must refuse it.
	if _, err := New(space, ds.Transactions, Config{Mining: mining.Options{MinRuleProfit: 5}}); err == nil ||
		!strings.Contains(err.Error(), "support threshold") {
		t.Errorf("profit-only pruning not rejected: %v", err)
	}
}

func TestSlideEvictsAtCapacityAndMatchesBatch(t *testing.T) {
	ds, space := groceryWorld(t, 800, 7)
	opts := mining.Options{MinSupport: 0.01}
	const window = 500

	m, err := New(space, ds.Transactions[:window], Config{Mining: opts})
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != window || m.Len() != window {
		t.Fatalf("capacity %d len %d, want %d", m.Capacity(), m.Len(), window)
	}

	// An empty slide is a no-op returning the same model.
	before := m.Recommender()
	rec, err := m.Slide(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec != before {
		t.Error("empty slide rebuilt the model")
	}

	// A slide beyond the capacity must be refused outright.
	if _, err := m.Slide(ds.Transactions[:window+1]); err == nil {
		t.Error("slide larger than the window capacity accepted")
	}

	// A real slide holds the window at capacity: the oldest transactions
	// leave as the new ones enter.
	rec, err = m.Slide(ds.Transactions[window : window+100])
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != window {
		t.Fatalf("window grew to %d", m.Len())
	}
	got := m.Window()
	want := ds.Transactions[100 : window+100]
	if !reflect.DeepEqual(got, want) {
		t.Fatal("window after the slide is not dataset transactions [100:600]")
	}
	full := batchBuild(t, space, want, opts)
	if !bytes.Equal(saveBytes(t, ds.Catalog, rec), saveBytes(t, ds.Catalog, full)) {
		t.Error("slid model is not byte-identical to a batch rebuild over the same window")
	}
}

func TestNewRefresherValidation(t *testing.T) {
	ds, space := groceryWorld(t, 400, 3)
	maint, err := New(space, ds.Transactions[:300], Config{Mining: mining.Options{MinSupport: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok := RefreshConfig{
		Maintainer: maint,
		Catalog:    ds.Catalog,
		Source:     ds.Transactions,
		Start:      300,
		Slide:      50,
		Registry:   reg,
	}
	for name, breakIt := range map[string]func(*RefreshConfig){
		"nil maintainer": func(c *RefreshConfig) { c.Maintainer = nil },
		"nil catalog":    func(c *RefreshConfig) { c.Catalog = nil },
		"nil registry":   func(c *RefreshConfig) { c.Registry = nil },
		"empty source":   func(c *RefreshConfig) { c.Source = nil },
		"zero slide":     func(c *RefreshConfig) { c.Slide = 0 },
		"huge slide":     func(c *RefreshConfig) { c.Slide = len(ds.Transactions) + 1 },
		"negative start": func(c *RefreshConfig) { c.Start = -1 },
		"start past end": func(c *RefreshConfig) { c.Start = len(ds.Transactions) },
	} {
		cfg := ok
		breakIt(&cfg)
		if _, err := NewRefresher(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := NewRefresher(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestRefreshStagesByteIdenticalCandidate drives the drift-answer path
// at the package level: each Refresh slides the window and promotes a
// model that is byte-identical to a batch rebuild over the refreshed
// window, under the content hash every registry surface uses. The
// second refresh wraps around the end of the source stream.
func TestRefreshStagesByteIdenticalCandidate(t *testing.T) {
	ds, space := groceryWorld(t, 700, 11)
	opts := mining.Options{MinSupport: 0.01}
	const window, slide = 500, 150

	maint, err := New(space, ds.Transactions[:window], Config{Mining: opts})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	r, err := NewRefresher(RefreshConfig{
		Maintainer: maint,
		Catalog:    ds.Catalog,
		Spec:       grocerySpec(),
		Source:     ds.Transactions,
		Start:      window,
		Slide:      slide,
		Registry:   reg,
		Logf:       func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, outcome, err := r.SubmitCurrent("initial"); err != nil || outcome != registry.Promoted {
		t.Fatalf("initial submit: outcome %v, err %v", outcome, err)
	}
	if !bytes.Equal(reg.Active().Rec.Sealed().Arena().Bytes(),
		sealBytes(t, ds.Catalog, batchBuild(t, space, ds.Transactions[:window], opts))) {
		t.Fatal("initial model is not byte-identical to the batch build")
	}

	for i := 0; i < 2; i++ {
		snap, outcome, err := r.Refresh()
		if err != nil || outcome != registry.Promoted {
			t.Fatalf("refresh %d: outcome %v, err %v", i, outcome, err)
		}
		full := batchBuild(t, space, maint.Window(), opts)
		wantBytes := saveBytes(t, ds.Catalog, full)
		if !bytes.Equal(snap.Rec.Sealed().Arena().Bytes(), sealBytes(t, ds.Catalog, full)) {
			t.Fatalf("refresh %d: promoted model diverges from a batch rebuild over the same window", i)
		}
		if snap.Hash != registry.HashBytes(wantBytes) {
			t.Fatalf("refresh %d: hash %.8s does not identify the candidate bytes", i, snap.Hash)
		}
	}
	// Two slides of 150 past position 500 in a 700-transaction source:
	// the second batch wrapped, so the window's newest transaction is
	// source transaction 99.
	w := maint.Window()
	if !reflect.DeepEqual(w[len(w)-1], ds.Transactions[99]) {
		t.Error("second refresh did not wrap around the source stream")
	}

	// OnDrift reports outcomes through the log rather than errors.
	lines = nil
	r.OnDrift()
	if len(lines) != 1 || !strings.Contains(lines[0], "drift refresh") {
		t.Errorf("OnDrift logged %q", lines)
	}
}

// TestOnDriftLogsRejection: a gate rejection surfaces in the log and
// leaves the active model alone — a drift alarm must never replace the
// serving model with a candidate the registry refused.
func TestOnDriftLogsRejection(t *testing.T) {
	ds, space := groceryWorld(t, 600, 5)
	opts := mining.Options{MinSupport: 0.01}

	maint, err := New(space, ds.Transactions[:400], Config{Mining: opts})
	if err != nil {
		t.Fatal(err)
	}
	gateClosed := false
	reg, err := registry.New(registry.Options{
		Gate: func(cat *model.Catalog, rec *core.Recommender, active *registry.Snapshot) error {
			if gateClosed {
				return fmt.Errorf("gate closed")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	r, err := NewRefresher(RefreshConfig{
		Maintainer: maint,
		Catalog:    ds.Catalog,
		Source:     ds.Transactions,
		Start:      400,
		Slide:      100,
		Registry:   reg,
		Logf:       func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := r.SubmitCurrent("initial"); err != nil || outcome != registry.Promoted {
		t.Fatalf("initial submit: outcome %v, err %v", outcome, err)
	}
	active := reg.Active()

	gateClosed = true
	r.OnDrift()
	if len(lines) != 1 || !strings.Contains(lines[0], "rejected") {
		t.Errorf("rejected refresh logged %q", lines)
	}
	if reg.Active() != active {
		t.Error("rejected refresh disturbed the active model")
	}
}
