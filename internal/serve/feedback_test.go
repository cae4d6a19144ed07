package serve

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"profitmining/internal/feedback"
	"profitmining/internal/registry"
)

// newFeedbackServer builds a grocery model served through a registry
// whose promotions feed the given collector — the full closed-loop
// wiring cmd/profitserve uses.
func newFeedbackServer(t *testing.T, fb *feedback.Collector) (*registry.Registry, *httptest.Server) {
	t.Helper()
	cat, rec, _ := buildGroceryModel(t, 800, 3)
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Submit(cat, rec, "A", "hA"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistry(reg, nil, fb).Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

// inMemoryCollector is a test collector with a hair-trigger drift
// detector.
func inMemoryCollector(t *testing.T) *feedback.Collector {
	t.Helper()
	fb, _, err := feedback.Open(feedback.Config{
		Drift: feedback.DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

var ruleIDPattern = regexp.MustCompile(`^r[0-9a-f]{16}$`)

// TestRecommendationCarriesRuleID: every recommendation (and every
// /rules entry) carries the stable content-hash rule ID the outcome
// loop joins on, and the two agree.
func TestRecommendationCarriesRuleID(t *testing.T) {
	fb := inMemoryCollector(t)
	_, ts := newFeedbackServer(t, fb)

	_, body := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	recs := body["recommendations"].([]any)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	rec := recs[0].(map[string]any)
	id, _ := rec["ruleID"].(string)
	if !ruleIDPattern.MatchString(id) {
		t.Fatalf("recommendation ruleID %q does not look like a stable rule ID", id)
	}

	// The same rule listed on /rules carries the same ID.
	_, body = getJSON(t, ts.URL+"/rules?limit=500")
	found := false
	for _, e := range body["rules"].([]any) {
		entry := e.(map[string]any)
		if !ruleIDPattern.MatchString(entry["id"].(string)) {
			t.Fatalf("/rules entry without a valid id: %v", entry)
		}
		if entry["id"] == id && entry["rule"] == rec["rule"] {
			found = true
		}
	}
	if !found {
		t.Errorf("recommended rule %s (%s) not found on /rules with the same ID", id, rec["rule"])
	}
}

// TestOutcomeEndpointHardening pins the shared POST intake discipline
// on /outcome: 405, 415, 413, 400, and the 422 for unknown rules.
func TestOutcomeEndpointHardening(t *testing.T) {
	fb := inMemoryCollector(t)
	_, ts := newFeedbackServer(t, fb)

	// 405: GET.
	resp, err := http.Get(ts.URL + "/outcome")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /outcome = %d, want 405", resp.StatusCode)
	}

	// 415: wrong content type.
	resp, err = http.Post(ts.URL+"/outcome", "text/plain", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain /outcome = %d, want 415", resp.StatusCode)
	}

	// 413: oversized body.
	big := `{"requestID":"` + strings.Repeat("x", 80<<10) + `"}`
	resp, err = http.Post(ts.URL+"/outcome", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /outcome = %d, want 413", resp.StatusCode)
	}

	// 400: malformed JSON, missing ruleID, negative quantity.
	for _, body := range []string{`{not json`, `{}`, `{"ruleID":"r0123456789abcdef","qty":-1}`} {
		if resp, _ := postJSON(t, ts.URL+"/outcome", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /outcome %q = %d, want 400", body, resp.StatusCode)
		}
	}

	// 422: well-formed report for a rule no model has served.
	resp2, out := postJSON(t, ts.URL+"/outcome", `{"ruleID":"r0123456789abcdef","bought":true}`)
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown rule = %d (%v), want 422", resp2.StatusCode, out)
	}

	// All of the above counted as bad requests, none as outcomes.
	_, metrics := getJSON(t, ts.URL+"/metrics")
	fbm := metrics["feedback"].(map[string]any)
	if fbm["outcomes"].(float64) != 0 {
		t.Errorf("rejected reports leaked into the accounting: %v", fbm)
	}
	if fbm["unknownRules"].(float64) != 1 {
		t.Errorf("unknownRules = %v, want 1", fbm["unknownRules"])
	}
	if metrics["badRequests"].(float64) < 6 {
		t.Errorf("badRequests = %v, want ≥ 6", metrics["badRequests"])
	}
}

// TestOutcomeAccounting drives recommend → outcome → stats and checks
// the realized-profit bookkeeping end to end.
func TestOutcomeAccounting(t *testing.T) {
	fb := inMemoryCollector(t)
	_, ts := newFeedbackServer(t, fb)

	_, body := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	rec := body["recommendations"].([]any)[0].(map[string]any)
	ruleID := rec["ruleID"].(string)
	price := rec["price"].(float64)
	cost := rec["cost"].(float64)

	resp, receipt := postJSON(t, ts.URL+"/outcome",
		`{"requestID":"r-1","ruleID":"`+ruleID+`","modelVersion":1,"bought":true,"qty":2,"paidPrice":`+jsonNum(price)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /outcome = %d: %v", resp.StatusCode, receipt)
	}
	if receipt["seq"].(float64) != 1 || receipt["drifting"].(bool) {
		t.Errorf("receipt = %v", receipt)
	}

	_, stats := getJSON(t, ts.URL+"/feedback/stats")
	if stats["outcomes"].(float64) != 1 || stats["conversions"].(float64) != 1 {
		t.Fatalf("stats totals: %v", stats)
	}
	wantProfit := (price - cost) * 2
	if got := stats["realizedProfit"].(float64); got != wantProfit {
		t.Errorf("realizedProfit = %g, want %g", got, wantProfit)
	}
	rules := stats["rules"].([]any)
	if len(rules) != 1 || rules[0].(map[string]any)["ruleID"] != ruleID {
		t.Errorf("per-rule stats: %v", rules)
	}
	models := stats["models"].([]any)
	if len(models) != 1 || models[0].(map[string]any)["version"].(float64) != 1 {
		t.Errorf("per-model stats: %v", models)
	}
	drift := stats["drift"].(map[string]any)
	if drift["drifting"].(bool) || drift["observed"].(float64) != 1 {
		t.Errorf("drift state: %v", drift)
	}

	// The liveness and deployment surfaces expose the flag too.
	_, health := getJSON(t, ts.URL+"/healthz")
	if health["drifting"].(bool) {
		t.Errorf("healthz drifting = %v, want false", health["drifting"])
	}
	_, version := getJSON(t, ts.URL+"/version")
	if _, ok := version["drift"].(map[string]any); !ok {
		t.Errorf("/version missing drift state: %v", version)
	}
}

// jsonNum renders a float the way the JSON encoder would.
func jsonNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TestHostileOutcomeValuesRejected: outcomes whose qty or paidPrice
// would drive the realized-profit sums (or one record's own profit) to
// +Inf are refused with 400 at intake, and the accounting surfaces keep
// answering 200. Before the cap, two such outcomes made every later
// /metrics and /feedback/stats a 500, and with a WAL a single one
// failed to journal.
func TestHostileOutcomeValuesRejected(t *testing.T) {
	wal, _, err := feedback.Open(feedback.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() }) //lint:allow droppederr -- test teardown
	for name, fb := range map[string]*feedback.Collector{"in-memory": inMemoryCollector(t), "wal": wal} {
		t.Run(name, func(t *testing.T) {
			_, ts := newFeedbackServer(t, fb)
			_, body := postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
			ruleID := body["recommendations"].([]any)[0].(map[string]any)["ruleID"].(string)

			hostile := []string{
				`{"ruleID":"` + ruleID + `","bought":true,"qty":1e154,"paidPrice":1e154}`,
				`{"ruleID":"` + ruleID + `","bought":true,"qty":1e154,"paidPrice":1e154}`,
				`{"ruleID":"` + ruleID + `","bought":true,"qty":1e300,"paidPrice":1e300}`,
				`{"ruleID":"` + ruleID + `","bought":true,"qty":1,"paidPrice":1e10}`,
			}
			for _, b := range hostile {
				if resp, out := postJSON(t, ts.URL+"/outcome", b); resp.StatusCode != http.StatusBadRequest {
					t.Errorf("POST /outcome %s = %d (%v), want 400", b, resp.StatusCode, out)
				}
			}
			resp, metrics := getJSON(t, ts.URL+"/metrics")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics = %d after hostile outcomes", resp.StatusCode)
			}
			if got := metrics["badRequests"].(float64); got != float64(len(hostile)) {
				t.Errorf("badRequests = %v, want %d", got, len(hostile))
			}
			if resp, _ := getJSON(t, ts.URL+"/feedback/stats"); resp.StatusCode != http.StatusOK {
				t.Fatalf("/feedback/stats = %d after hostile outcomes", resp.StatusCode)
			}
			// The largest accepted values still journal and account.
			capped := `{"ruleID":"` + ruleID + `","bought":true,"qty":1e9,"paidPrice":1e9}`
			for i := 0; i < 2; i++ {
				if resp, out := postJSON(t, ts.URL+"/outcome", capped); resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /outcome at the cap = %d (%v), want 200", resp.StatusCode, out)
				}
			}
			if resp, stats := getJSON(t, ts.URL+"/feedback/stats"); resp.StatusCode != http.StatusOK || stats["outcomes"].(float64) != 2 {
				t.Errorf("/feedback/stats = %d %v, want 200 with 2 outcomes", resp.StatusCode, stats["outcomes"])
			}
		})
	}
}
