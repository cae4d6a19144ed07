package feedback

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestRecordUnknownRule(t *testing.T) {
	c, _, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(1, "m", testProjections()); err != nil {
		t.Fatal(err)
	}
	_, err = c.Record(Outcome{RuleID: "rdeadbeefdeadbeef", ModelVersion: 1})
	if !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("unknown rule: got %v, want ErrUnknownRule", err)
	}
	if st := c.Stats(0); st.UnknownRules != 1 || st.Outcomes != 0 {
		t.Errorf("unknown-rule report should be counted and excluded: %+v", st)
	}
}

func TestRecordRejectsOutOfRangeValues(t *testing.T) {
	c, _, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	projs := testProjections()
	if err := c.RegisterModel(1, "m", projs); err != nil {
		t.Fatal(err)
	}
	for _, o := range []Outcome{
		{Qty: -1}, {PaidPrice: -0.5}, {Qty: math.NaN()}, {PaidPrice: math.Inf(1)},
		{Qty: MaxOutcomeValue * 2}, {PaidPrice: math.Nextafter(MaxOutcomeValue, math.Inf(1))},
		{RuleID: "rdeadbeefdeadbeef", Qty: -1}, // checked before the rule lookup
	} {
		if o.RuleID == "" {
			o.RuleID = projs[0].ID
		}
		o.Bought = true
		if _, err := c.Record(o); !errors.Is(err, ErrInvalidOutcome) {
			t.Errorf("Record(%+v) = %v, want ErrInvalidOutcome", o, err)
		}
	}
	if _, err := c.Record(Outcome{RuleID: projs[0].ID, Bought: true, Qty: MaxOutcomeValue, PaidPrice: MaxOutcomeValue}); err != nil {
		t.Fatalf("values at the cap: %v", err)
	}
	if st := c.Stats(0); st.Outcomes != 1 || st.UnknownRules != 0 {
		t.Errorf("rejected reports leaked into the accounting: %+v", st)
	}
}

func TestRecordDefaultsQtyAndPrice(t *testing.T) {
	c, _, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	projs := testProjections()
	if err := c.RegisterModel(1, "m", projs); err != nil {
		t.Fatal(err)
	}
	// bought with no qty/price: one unit at the promo price.
	if _, err := c.Record(Outcome{RuleID: projs[0].ID, ModelVersion: 1, Bought: true}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats(0)
	wantProfit := projs[0].Price - projs[0].Cost
	if st.RealizedProfit != wantProfit { //lint:allow floatcmp -- exact arithmetic on test constants
		t.Errorf("realized profit %g, want %g", st.RealizedProfit, wantProfit)
	}
	if st.Conversions != 1 || st.Rules[0].Qty != 1 { //lint:allow floatcmp -- exact default
		t.Errorf("defaulted conversion mis-aggregated: %+v", st.Rules[0])
	}
}

// driveToDrift feeds a calibration phase (purchases, negative
// shortfall) followed by misses until the detector trips. Page-Hinkley
// tracks a CHANGE in the shortfall mean, so an all-miss stream from the
// start would just look like a (badly) calibrated model — the shift is
// what alarms.
func driveToDrift(t *testing.T, c *Collector, projs []RuleProjection) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if _, err := c.Record(Outcome{RuleID: projs[0].ID, ModelVersion: 1, Bought: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500 && !c.Drifting(); i++ {
		if _, err := c.Record(Outcome{RuleID: projs[0].ID, ModelVersion: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegisterModelResetsOnlyOnContentChange(t *testing.T) {
	c, _, err := Open(Config{Drift: DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5}})
	if err != nil {
		t.Fatal(err)
	}
	projs := testProjections()
	if err := c.RegisterModel(1, "a", projs); err != nil {
		t.Fatal(err)
	}
	driveToDrift(t, c, projs)
	if !c.Drifting() {
		t.Fatal("expected drift after the purchase→miss shift")
	}

	// Same content re-registered (a restart, a re-poll): alarm holds.
	if err := c.RegisterModel(2, "a-again", projs); err != nil {
		t.Fatal(err)
	}
	if !c.Drifting() {
		t.Error("re-registering identical content must not silence a standing alarm")
	}

	// Genuinely new content: alarm resets.
	fresh := []RuleProjection{{ID: "rcccccccccccccccc", ProfRe: 0.1, Conf: 0.9, Price: 2, Cost: 1}}
	if err := c.RegisterModel(3, "b", fresh); err != nil {
		t.Fatal(err)
	}
	if c.Drifting() {
		t.Error("promoting changed content must reset the drift detector")
	}
	// Projections overlay: outcomes for the old model's rules still join.
	if _, err := c.Record(Outcome{RuleID: projs[0].ID, ModelVersion: 1}); err != nil {
		t.Errorf("late outcome for a retired rule rejected: %v", err)
	}
}

func TestOnDriftFiresOncePerEpisode(t *testing.T) {
	fired := make(chan struct{}, 16)
	c, _, err := Open(Config{
		Drift:   DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5},
		OnDrift: func() { fired <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	projs := testProjections()
	if err := c.RegisterModel(1, "m", projs); err != nil {
		t.Fatal(err)
	}
	driveToDrift(t, c, projs)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDrift never fired")
	}
	select {
	case <-fired:
		t.Fatal("OnDrift fired more than once in a single episode")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestRegisterModelChunksLargeModels: a model with more rules than fit
// one WAL record is journaled across chunks and survives replay whole —
// the failure mode here was a single giant record tripping the frame
// limit and the registration silently never becoming durable.
func TestRegisterModelChunksLargeModels(t *testing.T) {
	cfg := testConfig(t.TempDir())
	c, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := maxModelChunkRules + 17
	projs := make([]RuleProjection, n)
	for i := range projs {
		projs[i] = RuleProjection{
			ID:     fmt.Sprintf("r%016x", i),
			ProfRe: float64(i%7) / 10,
			Conf:   0.5,
			Price:  5,
			Cost:   3,
		}
	}
	if err := c.RegisterModel(1, "big", projs); err != nil {
		t.Fatal(err)
	}
	// Outcomes for rules in both the first and the last chunk join.
	for _, ix := range []int{0, n - 1} {
		if _, err := c.Record(Outcome{RuleID: projs[ix].ID, ModelVersion: 1, Bought: true}); err != nil {
			t.Fatalf("outcome for projection %d: %v", ix, err)
		}
	}
	want := c.Stats(0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, rs, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rs.Records < 4 { // ≥2 model chunks + 2 outcomes
		t.Errorf("replay saw %d records, expected the chunked registration", rs.Records)
	}
	if got := c2.Stats(0); !reflect.DeepEqual(got, want) {
		t.Errorf("chunked model replay diverged:\n got %+v\nwant %+v", got, want)
	}
	// Re-registering the identical content after replay is still a no-op.
	if err := c2.RegisterModel(2, "big-again", projs); err != nil {
		t.Fatal(err)
	}
	c3, rs2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c3.Close()
	if rs2.Records != rs.Records {
		t.Errorf("idempotent re-registration appended records: %d -> %d", rs.Records, rs2.Records)
	}
}

// TestRegisterModelEmptyRules: a model with zero projections still
// journals exactly one terminal chunk, so the registration is durable
// and replay restores the (empty) rule table. The chunk loop's
// degenerate iteration is the part under test.
func TestRegisterModelEmptyRules(t *testing.T) {
	cfg := testConfig(t.TempDir())
	c, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(1, "empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, rs, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rs.Records != 1 {
		t.Errorf("empty registration journaled %d records, want exactly 1 terminal chunk", rs.Records)
	}
	if st := c2.Stats(0); len(st.Rules) != 0 || st.Outcomes != 0 {
		t.Errorf("replayed empty model: %+v", st)
	}
	// The replayed table really is empty: every ruleID is unknown.
	if _, err := c2.Record(Outcome{RuleID: "rdeadbeefdeadbeef", ModelVersion: 1}); !errors.Is(err, ErrUnknownRule) {
		t.Errorf("empty table should reject outcomes: %v", err)
	}
}

// TestReplayIsIdempotent reopens the same log twice and expects
// bit-identical statistics both times — replay is a pure function of
// the log.
func TestReplayIsIdempotent(t *testing.T) {
	cfg := testConfig(t.TempDir())
	writeFixture(t, cfg, 50)
	first, rs1 := reopenStats(t, cfg)
	second, rs2 := reopenStats(t, cfg)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two replays of one log disagree:\n 1st %+v\n 2nd %+v", first, second)
	}
	if rs1.Records != rs2.Records || rs1.Records == 0 {
		t.Errorf("replay record counts: %d vs %d", rs1.Records, rs2.Records)
	}
}

// TestReplayReproducesDriftTrigger crashes (well, closes) a drifting
// collector and expects the replayed detector to be drifting with the
// same trigger index — the durable form of drift determinism.
func TestReplayReproducesDriftTrigger(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir:   dir,
		WAL:   WALOptions{SyncEvery: 0},
		Drift: DriftConfig{Delta: 0.001, Lambda: 1, MinObservations: 5},
	}
	c, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	projs := testProjections()
	if err := c.RegisterModel(1, "m", projs); err != nil {
		t.Fatal(err)
	}
	driveToDrift(t, c, projs)
	live := c.Drift()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !live.Drifting || live.TriggeredAt == 0 {
		t.Fatalf("fixture never drifted: %+v", live)
	}

	c2, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	replayed := c2.Drift()
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("replayed drift state %+v, live was %+v", replayed, live)
	}
}

// TestInMemoryCollector pins the Dir-less mode: everything works, just
// without durability.
func TestInMemoryCollector(t *testing.T) {
	c, rs, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 0 || rs.Segments != 0 {
		t.Errorf("in-memory open reported a replay: %+v", rs)
	}
	projs := testProjections()
	if err := c.RegisterModel(1, "m", projs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Record(Outcome{RuleID: projs[0].ID, ModelVersion: 1, Bought: true}); err != nil {
		t.Fatal(err)
	}
	if bytes, segs, err := c.LogSize(); err != nil || bytes != 0 || segs != 0 {
		t.Errorf("in-memory LogSize = %d,%d,%v", bytes, segs, err)
	}
	if err := c.Sync(); err != nil {
		t.Errorf("in-memory Sync: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
}
