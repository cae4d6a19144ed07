package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/registry"
)

// TestClosedLoopEndToEnd is the acceptance path for the feedback
// subsystem, over real HTTP:
//
//	serve recommendations → post diverging outcomes → drift flag raised
//	→ staged model promoted via the registry → drift detector reset
//	→ crash (close) and replay reproduces identical stats.
func TestClosedLoopEndToEnd(t *testing.T) {
	cfg := feedback.Config{
		Dir:   t.TempDir(),
		WAL:   feedback.WALOptions{SyncEvery: 0},
		Drift: feedback.DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5},
		Logf:  t.Logf,
	}
	fb, _, err := feedback.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Shadow staging on, with a sample floor high enough that nothing
	// auto-promotes: promotion stays an explicit registry operation.
	reg, err := registry.New(registry.Options{
		ShadowFraction:   1,
		ShadowMinSamples: 1 << 30,
		OnPromote:        func(snap *registry.Snapshot) { RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		t.Fatal(err)
	}
	catA, recA, _ := buildGroceryModel(t, 800, 3)
	if _, _, err := reg.Submit(catA, recA, "A", "hashA"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewRegistry(reg, nil, fb).Handler())
	defer ts.Close()

	// 1. Serve a recommendation and harvest the stable rule ID it carries.
	_, body := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	recs := body["recommendations"].([]any)
	if len(recs) == 0 {
		t.Fatal("model A served no recommendation")
	}
	ruleID := recs[0].(map[string]any)["ruleID"].(string)

	// 2. A calibration phase (customers buy as projected), then a
	// sustained divergence: the shift in the profit shortfall is what
	// Page-Hinkley alarms on.
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

	// 3. The flag is visible on the operational surfaces.
	_, health := getJSON(t, ts.URL+"/healthz")
	if !health["drifting"].(bool) {
		t.Error("/healthz does not show the raised drift flag")
	}
	_, stats := getJSON(t, ts.URL+"/feedback/stats")
	drift := stats["drift"].(map[string]any)
	if !drift["drifting"].(bool) || drift["triggeredAt"].(float64) == 0 {
		t.Errorf("/feedback/stats drift state: %v", drift)
	}

	// 4. The operator answers the alarm with a rebuilt model: submitted,
	// staged (shadow scoring is on), then promoted via the registry. The
	// promotion hook registers the new projections and, because the
	// content changed, resets the detector.
	catB, recB, _ := buildGroceryModel(t, 1000, 7)
	snapB, outcome, err := reg.Submit(catB, recB, "B", "hashB")
	if err != nil {
		t.Fatal(err)
	}
	if outcome != registry.Staged {
		t.Fatalf("model B should stage for shadow scoring, got %v", outcome)
	}
	promoted, err := reg.PromoteStaged()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Version != snapB.Version {
		t.Fatalf("promoted v%d, staged was v%d", promoted.Version, snapB.Version)
	}

	_, health = getJSON(t, ts.URL+"/healthz")
	if health["drifting"].(bool) {
		t.Error("promoting the rebuilt model should reset the drift flag")
	}
	_, version := getJSON(t, ts.URL+"/version")
	vd := version["drift"].(map[string]any)
	if vd["drifting"].(bool) || vd["observed"].(float64) != 0 {
		t.Errorf("/version drift after promotion: %v", vd)
	}

	// 5. Crash and replay: a reopened collector over the same log
	// reproduces the exact accounting, including the reset episode.
	want := fb.Stats(0)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2, rs, err := feedback.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if rs.Records == 0 {
		t.Fatal("replay saw an empty log")
	}
	if got := fb2.Stats(0); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed stats diverged:\n got %+v\nwant %+v", got, want)
	}
}

// buildGroceryModelParallel is buildGroceryModel with an explicit build
// parallelism, for pinning that the feedback loop is independent of how
// many workers built the model.
func buildGroceryModelParallel(t *testing.T, n int, seed int64, parallelism int) *core.Recommender {
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
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDriftTriggerInvariantUnderParallelism: models built serially and
// with maximum parallelism are byte-identical, so an identical outcome
// stream must trip the drift detector at the identical record index.
func TestDriftTriggerInvariantUnderParallelism(t *testing.T) {
	g := datagen.NewGrocery(800, 3)
	var states []feedback.DriftState
	var firstStats feedback.Stats
	for i, parallelism := range []int{1, 8} {
		rec := buildGroceryModelParallel(t, 800, 3, parallelism)
		fb, _, err := feedback.Open(feedback.Config{
			Drift: feedback.DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		cat, sealed := sealModel(t, g.Dataset.Catalog, rec)
		RegisterSnapshot(fb, &registry.Snapshot{Version: 1, Hash: "h", Cat: cat, Rec: sealed})

		// One rule, identical across builds because its ID is a content
		// hash of a deterministically built model.
		ruleID := rec.RuleID(rec.Rules()[0])
		for j := 0; j < 10; j++ {
			if _, err := fb.Record(feedback.Outcome{RuleID: ruleID, ModelVersion: 1, Bought: true}); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 500 && !fb.Drifting(); j++ {
			if _, err := fb.Record(feedback.Outcome{RuleID: ruleID, ModelVersion: 1}); err != nil {
				t.Fatal(err)
			}
		}
		st := fb.Drift()
		if !st.Drifting {
			t.Fatalf("parallelism %d: stream never tripped the detector", parallelism)
		}
		states = append(states, st)
		if i == 0 {
			firstStats = fb.Stats(0)
		} else if got := fb.Stats(0); !reflect.DeepEqual(got, firstStats) {
			t.Errorf("parallelism %d stats diverged:\n got %+v\nwant %+v", parallelism, got, firstStats)
		}
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Errorf("drift trigger depends on build parallelism:\n serial %+v\n parallel %+v", states[0], states[1])
	}
}
