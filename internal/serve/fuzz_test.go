package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzServePost drives arbitrary bodies and Content-Types through the
// POST decoders of /recommend, /recommend/batch and /outcome, straight
// into Handler with a recorder (no sockets). Whatever arrives, the
// server must not panic or answer 5xx, must answer JSON, and must count
// every 4xx as exactly one bad request and nothing else as one.
func FuzzServePost(f *testing.F) {
	_, srv := newGroceryServer(f)
	h := srv.Handler()
	ruleID := srv.reg.Active().Rec.Sealed().Rules().ID(0)
	paths := []string{"/recommend", "/recommend/batch", "/outcome"}

	const jsonCT = "application/json"
	for _, ct := range []string{"", "text/plain", "application/x-www-form-urlencoded", "application/", "application/json; charset=utf-8"} {
		f.Add(uint8(0), ct, []byte(`{"basket":[{"item":"Beer","promoIx":0}]}`))
	}
	for _, body := range []string{
		`{`, `{not json`, `{}`, `null`, `[]`,
		`{"basket":[{"item":"Beer","promoIx":0}]}`,
		`{"basket":[{"item":"Perfume","promoIx":0},{"item":"Bread","promoIx":0}],"k":2}`,
		`{"basket":[{"item":"Ghost","promoIx":0}]}`,
		`{"basket":[{"item":"Sunchip","promoIx":0}]}`,
		`{"basket":[{"item":"Beer","promoIx":9}]}`,
		`{"basket":[{"item":"Beer","promoIx":0,"qty":-2}]}`,
		`{"basket":[{"item":"Beer","promoIx":0,"qty":1e308}],"k":-1}`,
	} {
		f.Add(uint8(0), jsonCT, []byte(body))
	}
	// One basket over the limit, each basket as small as the wire allows
	// so that minimizing its mutants stays cheap.
	oversized := `{"baskets":[` + strings.Repeat(`{},`, maxBatchBaskets) + `{}]}`
	for _, body := range []string{
		`{"baskets":[]}`,
		`{"baskets":[{"basket":[{"item":"Bread","promoIx":0}],"k":3},{"basket":[{"item":"Ghost","promoIx":0}]}]}`,
		oversized,
	} {
		f.Add(uint8(1), jsonCT, []byte(body))
	}
	for _, body := range []string{
		`{not json`, `{}`,
		`{"ruleID":"r0123456789abcdef","qty":-1}`,
		`{"ruleID":"r0123456789abcdef","bought":true}`,
		// 413 on the smallest body cap; a 1 MiB /recommend seed would
		// stall the fuzzer minimizing its mutants.
		`{"requestID":"` + strings.Repeat("x", maxOutcomeBody) + `"}`,
		`{"ruleID":"` + ruleID + `","modelVersion":1,"bought":true,"qty":2,"paidPrice":1.5}`,
		`{"ruleID":"` + ruleID + `","bought":true,"qty":1e154,"paidPrice":1e154}`,
		`{"ruleID":"` + ruleID + `","bought":true,"qty":1e300,"paidPrice":1e300}`,
	} {
		f.Add(uint8(2), jsonCT, []byte(body))
	}

	f.Fuzz(func(t *testing.T, ep uint8, ct string, body []byte) {
		path := paths[int(ep)%len(paths)]
		before := srv.badRequests.Load()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		bad := srv.badRequests.Load() - before
		switch {
		case w.Code >= 500:
			t.Fatalf("POST %s (%q) = %d: %s", path, ct, w.Code, w.Body.Bytes())
		case w.Code >= 400 && bad != 1:
			t.Fatalf("POST %s (%q) = %d counted %d bad requests, want 1", path, ct, w.Code, bad)
		case w.Code < 400 && bad != 0:
			t.Fatalf("POST %s (%q) = %d counted %d bad requests, want 0", path, ct, w.Code, bad)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("POST %s (%q) = %d answered non-JSON: %q", path, ct, w.Code, w.Body.Bytes())
		}
	})
}
