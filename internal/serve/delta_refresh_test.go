package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/hierarchy"
	"profitmining/internal/incremental"
	"profitmining/internal/mining"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// TestDriftDeltaRefreshEndToEnd is the acceptance path for incremental
// model maintenance, over real HTTP:
//
//	serve the windowed model → post diverging outcomes → drift alarm
//	→ OnDrift slides the window and stages a delta-refreshed candidate
//	→ shadow traffic scores it → auto-promote → drift detector reset
//	→ the promoted model is byte-identical to a batch rebuild over the
//	  slid window.
func TestDriftDeltaRefreshEndToEnd(t *testing.T) {
	const window, slide = 600, 150
	g := datagen.NewGrocery(900, 3)
	hb, err := grocerySpec().Builder(g.Dataset.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mopts := mining.Options{MinSupport: 0.01}
	maint, err := incremental.New(space, g.Dataset.Transactions[:window], incremental.Config{Mining: mopts})
	if err != nil {
		t.Fatal(err)
	}

	// The drift hook fires from the collector's goroutine before the
	// refresher can exist (it needs the registry, which needs the
	// collector), so the test wires it exactly like profitserve does:
	// late binding through an atomic.
	var refresher atomicRefresher
	fb, _, err := feedback.Open(feedback.Config{
		Drift:   feedback.DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5},
		OnDrift: refresher.onDrift,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	// Shadow staging on with a small sample floor, so the delta-refreshed
	// candidate auto-promotes after a few shadowed requests.
	reg, err := registry.New(registry.Options{
		ShadowFraction:   1,
		ShadowMinSamples: 3,
		OnPromote:        func(snap *registry.Snapshot) { RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := incremental.NewRefresher(incremental.RefreshConfig{
		Maintainer: maint,
		Catalog:    g.Dataset.Catalog,
		Spec:       grocerySpec(),
		Source:     g.Dataset.Transactions,
		Start:      window,
		Slide:      slide,
		Registry:   reg,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	refresher.store(r)
	snap1, outcome, err := r.SubmitCurrent("initial window")
	if err != nil || outcome != registry.Promoted {
		t.Fatalf("initial submit: outcome %v, err %v", outcome, err)
	}

	ts := httptest.NewServer(NewRegistry(reg, nil, fb).Handler())
	defer ts.Close()

	// 1. Serve a recommendation and harvest the stable rule ID it carries.
	_, body := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	recs := body["recommendations"].([]any)
	if len(recs) == 0 {
		t.Fatal("windowed model served no recommendation")
	}
	ruleID := recs[0].(map[string]any)["ruleID"].(string)

	// 2. Calibration, then sustained divergence until the alarm trips.
	for i := 0; i < 10; i++ {
		resp, out := postJSON(t, ts.URL+"/outcome",
			`{"requestID":"calib","ruleID":"`+ruleID+`","modelVersion":1,"bought":true}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("calibration outcome %d: %d %v", i, resp.StatusCode, out)
		}
	}
	drifting := false
	for i := 0; i < 500 && !drifting; i++ {
		resp, receipt := postJSON(t, ts.URL+"/outcome",
			`{"requestID":"miss","ruleID":"`+ruleID+`","modelVersion":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("miss outcome %d: %d %v", i, resp.StatusCode, receipt)
		}
		drifting = receipt["drifting"].(bool)
	}
	if !drifting {
		t.Fatal("sustained divergence never raised the drift flag")
	}

	// 3. The alarm fired OnDrift on its own goroutine; the delta refresh
	// must stage a candidate (shadow scoring is on, so no promotion yet).
	var staged *registry.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for staged == nil {
		if time.Now().After(deadline) {
			t.Fatal("drift alarm never staged a delta-refreshed candidate")
		}
		staged = reg.Staged()
		time.Sleep(10 * time.Millisecond)
	}
	if v := reg.Active().Version; v != snap1.Version {
		t.Fatalf("staging disturbed the active model (version %d)", v)
	}

	// 4. The staged candidate is exactly what a from-scratch rebuild over
	// the slid window produces.
	wantWindow := g.Dataset.Transactions[slide : window+slide]
	mined, err := mining.Mine(space, wantWindow, mopts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Build(space, wantWindow, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantImg, err := modelio.Seal(g.Dataset.Catalog, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(staged.Rec.Sealed().Arena().Bytes(), wantImg) {
		t.Fatal("delta-refreshed candidate diverges from a batch rebuild over the slid window")
	}

	// 5. Shadowed recommend traffic scores the candidate and, at the
	// sample floor, auto-promotes it.
	for i := 0; i < 10 && reg.Staged() != nil; i++ {
		postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	}
	if reg.Staged() != nil {
		t.Fatal("shadow traffic never auto-promoted the staged candidate")
	}
	active := reg.Active()
	if active.Version == snap1.Version || active.Hash != staged.Hash {
		t.Fatalf("active is v%d %.8s, want the delta-refreshed candidate v%d %.8s",
			active.Version, active.Hash, staged.Version, staged.Hash)
	}

	// 6. Promotion registered the refreshed model with the collector and
	// reset the detector; the operational surfaces agree.
	_, health := getJSON(t, ts.URL+"/healthz")
	if health["drifting"].(bool) {
		t.Error("promoting the delta refresh should reset the drift flag")
	}
	_, version := getJSON(t, ts.URL+"/version")
	if version["hash"].(string) != staged.Hash {
		t.Errorf("/version hash %v, want %.8s", version["hash"], staged.Hash)
	}
}

// atomicRefresher late-binds the drift hook to a refresher created after
// the collector, the same way cmd/profitserve wires it.
type atomicRefresher struct {
	p atomic.Pointer[incremental.Refresher]
}

func (a *atomicRefresher) store(r *incremental.Refresher) { a.p.Store(r) }

func (a *atomicRefresher) onDrift() {
	if r := a.p.Load(); r != nil {
		r.OnDrift()
	}
}
