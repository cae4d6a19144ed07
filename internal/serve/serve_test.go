package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
)

func newTestServer(t testing.TB) (*datagen.Grocery, *httptest.Server) {
	t.Helper()
	g, srv := newGroceryServer(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// newGroceryServer builds the grocery test model and serves it from a
// fixed-model Server.
func newGroceryServer(t testing.TB) (*datagen.Grocery, *Server) {
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
	return g, New(g.Dataset.Catalog, rec)
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestHealth(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Errorf("health = %v", body)
	}
	if body["rules"].(float64) <= 0 {
		t.Error("health should report the rule count")
	}
}

func TestRecommendBasket(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/recommend",
		`{"basket":[{"item":"Beer","promoIx":0,"qty":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	recs := body["recommendations"].([]any)
	if len(recs) != 1 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	first := recs[0].(map[string]any)
	if first["item"] != "Sunchip" {
		t.Errorf("beer basket → %v, want Sunchip", first["item"])
	}
	if first["rule"] == "" || first["profRe"].(float64) <= 0 {
		t.Error("recommendation must carry its rule and measures")
	}
	if len(first["explain"].([]any)) == 0 {
		t.Error("recommendation must carry the explanation lineage")
	}
}

func TestRecommendTopK(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/recommend",
		`{"basket":[{"item":"Perfume","promoIx":0}],"k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	recs := body["recommendations"].([]any)
	if len(recs) != 2 {
		t.Fatalf("k=2 returned %d recommendations", len(recs))
	}
	a := recs[0].(map[string]any)["item"]
	b := recs[1].(map[string]any)["item"]
	if a == b {
		t.Error("top-K repeated an item")
	}
}

func TestRecommendEmptyBasketUsesDefault(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/recommend", `{"basket":[]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body["recommendations"].([]any)) != 1 {
		t.Error("empty basket must still get the default recommendation")
	}
}

func TestRecommendValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown item", `{"basket":[{"item":"Ghost","promoIx":0}]}`},
		{"target in basket", `{"basket":[{"item":"Sunchip","promoIx":0}]}`},
		{"bad promo index", `{"basket":[{"item":"Beer","promoIx":9}]}`},
		{"negative qty", `{"basket":[{"item":"Beer","promoIx":0,"qty":-2}]}`},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/recommend", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %v", tc.name, resp.StatusCode, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
}

func TestMethodChecks(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, _ := getJSON(t, ts.URL+"/recommend"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /recommend = %d, want 405", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/healthz", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

func TestRulesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/rules?limit=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rules := body["rules"].([]any)
	if len(rules) == 0 || len(rules) > 3 {
		t.Errorf("rules = %d entries, want 1..3", len(rules))
	}
	if body["total"].(float64) <= 0 {
		t.Error("total missing")
	}
	if resp, _ := getJSON(t, ts.URL+"/rules?limit=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit accepted: %d", resp.StatusCode)
	}
}

func TestCatalogEndpoint(t *testing.T) {
	g, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/catalog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	items := body["items"].([]any)
	if len(items) != g.Dataset.Catalog.NumItems() {
		t.Errorf("catalog lists %d items, want %d", len(items), g.Dataset.Catalog.NumItems())
	}
	// Every item carries its promos with indexes.
	first := items[0].(map[string]any)
	if len(first["promos"].([]any)) == 0 {
		t.Error("item without promos in catalog response")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	postJSON(t, ts.URL+"/recommend", `{bad json`)

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := body["recommendations"].(float64); got != 2 {
		t.Errorf("recommendations = %v, want 2", got)
	}
	if got := body["badRequests"].(float64); got != 1 {
		t.Errorf("badRequests = %v, want 1", got)
	}
}

func TestRecommendRejectsWrongContentType(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"basket":[{"item":"Beer","promoIx":0}]}`
	for _, ct := range []string{"", "text/plain", "application/x-www-form-urlencoded", "application/"} {
		resp, err := http.Post(ts.URL+"/recommend", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("Content-Type %q: non-JSON error response: %v", ct, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
		if out["error"] == "" {
			t.Errorf("Content-Type %q: missing error message", ct)
		}
	}
	// A parameterized JSON media type is fine.
	resp, err := http.Post(ts.URL+"/recommend", "application/json; charset=utf-8", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("application/json with charset: status %d, want 200", resp.StatusCode)
	}

	_, metrics := getJSON(t, ts.URL+"/metrics")
	if got := metrics["badRequests"].(float64); got != 4 {
		t.Errorf("badRequests = %v, want 4 (one per rejected Content-Type)", got)
	}
}

func TestRecommendRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t)
	// A syntactically valid request that is simply too big: the decoder
	// must hit the MaxBytesReader limit, not a JSON error.
	var sb strings.Builder
	sb.WriteString(`{"basket":[`)
	line := `{"item":"Beer","promoIx":0,"qty":1},`
	for sb.Len() < 1<<20 {
		sb.WriteString(line)
	}
	sb.WriteString(`{"item":"Beer","promoIx":0,"qty":1}]}`)

	resp, body := postJSON(t, ts.URL+"/recommend", sb.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(body["error"].(string), "exceeds") {
		t.Errorf("413 error = %v, want a body-size message", body["error"])
	}

	_, metrics := getJSON(t, ts.URL+"/metrics")
	if got := metrics["badRequests"].(float64); got != 1 {
		t.Errorf("badRequests = %v, want 1", got)
	}
	if got := metrics["recommendations"].(float64); got != 0 {
		t.Errorf("recommendations = %v, want 0", got)
	}
}

func TestConcurrentScoring(t *testing.T) {
	_, ts := newTestServer(t)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 30; i++ {
				resp, err := http.Post(ts.URL+"/recommend", "application/json",
					strings.NewReader(`{"basket":[{"item":"Bread","promoIx":0}]}`))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- errStatus
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type statusError string

func (e statusError) Error() string { return string(e) }

var errStatus error = statusError("unexpected status code")

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["version"].(float64) != 1 {
		t.Errorf("version = %v, want 1", body["version"])
	}
	if body["rules"].(float64) <= 0 {
		t.Error("version must report the rule count")
	}
	if resp.Header.Get("X-Model-Version") != "1" {
		t.Errorf("X-Model-Version = %q, want 1", resp.Header.Get("X-Model-Version"))
	}
	if _, staged := body["staged"]; staged {
		t.Error("static deployment must not report a staged candidate")
	}
}

func TestRecommendCarriesModelVersion(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/recommend",
		`{"basket":[{"item":"Beer","promoIx":0,"qty":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["modelVersion"].(float64) != 1 {
		t.Errorf("modelVersion = %v, want 1", body["modelVersion"])
	}
	if resp.Header.Get("X-Model-Version") != "1" {
		t.Errorf("X-Model-Version = %q, want 1", resp.Header.Get("X-Model-Version"))
	}
}

func TestRulesLimitCappedAtRuleCount(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/rules?limit=1000000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rules := body["rules"].([]any)
	total := int(body["total"].(float64))
	if len(rules) != total {
		t.Errorf("limit beyond the rule count returned %d rules, want all %d", len(rules), total)
	}
}

func TestMetricsPerEndpointAndLatency(t *testing.T) {
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+"/healthz")
	postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)
	postJSON(t, ts.URL+"/recommend", `{"basket":[{"item":"Beer","promoIx":0}]}`)

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	reqs := body["requests"].(map[string]any)
	if got := reqs["/healthz"].(float64); got != 1 {
		t.Errorf("requests[/healthz] = %v, want 1", got)
	}
	if got := reqs["/recommend"].(float64); got != 2 {
		t.Errorf("requests[/recommend] = %v, want 2", got)
	}
	lat := body["latency"].(map[string]any)
	// /metrics itself is instrumented but its own latency is recorded
	// after the response renders, so 3 observations are guaranteed.
	if got := lat["count"].(float64); got < 3 {
		t.Errorf("latency count = %v, want >= 3", got)
	}
	checkBuckets(t, "aggregate", lat)
	// Quantiles are bucket upper edges, so never 0 once anything landed.
	for _, q := range []string{"p50Ms", "p95Ms", "p99Ms"} {
		if v, ok := lat[q].(float64); !ok || v <= 0 {
			t.Errorf("aggregate %s = %v, want a positive bucket edge", q, lat[q])
		}
	}
	if body["modelVersion"].(float64) != 1 {
		t.Errorf("modelVersion = %v, want 1", body["modelVersion"])
	}
}

func TestAdminReloadWithoutWatcher(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("reload without a watcher = %d, want 501", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/admin/reload"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload = %d, want 405", resp.StatusCode)
	}
}
