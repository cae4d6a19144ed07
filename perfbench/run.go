package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"profitmining"
	"profitmining/internal/core"
	"profitmining/internal/modelio"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	end2end  map[string]metric
	perLayer map[string]metric
	summary  []string // human-readable lines printed before the result
	problems []string // failed correctness checks

	attempted, failed int64
	spans             []span
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.summary = append(r.summary, fmt.Sprintf(format, args...))
}

// setupRecord is what the benchmark keeps of a set-up it tears down.
type setupRecord struct {
	total, gen, build, first   time.Duration
	sealedHash, heapHash, gain string
}

// runWorkload runs workload w once: the set-ups, then the timed
// phases on the last set-up, then the checks. traced records spans and
// computes the per-layer metrics.
func runWorkload(w workload, seed int64, total time.Duration, traced bool) (*result, error) {
	workers := runtime.NumCPU()
	tr := newTracer(traced)
	res := &result{end2end: map[string]metric{}, perLayer: map[string]metric{}}
	peak := startHeapPeak()
	defer peak.stopMB()

	var recs []setupRecord
	var e *env
	var sealS, loadS []float64
	for k := 0; k < setups; k++ {
		peak.mark()
		var err error
		if e, err = setup(w, seed, tr, workers); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		recs = append(recs, setupRecord{
			total: e.total, gen: e.gen, build: e.build, first: e.firstRequest,
			sealedHash: modelio.ContentHash(e.sealed), heapHash: e.heapHash, gain: gainBits(e.gain),
		})
		seal, load, err := timeSealLoad(e)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		sealS, loadS = append(sealS, seal...), append(loadS, load...)
		if k < setups-1 {
			if err := e.st.close(); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", k+1, err)
			}
			e = nil // a set-up starts with nothing of the last one live
		}
	}
	defer e.st.close()
	for k := 1; k < setups; k++ {
		res.check(recs[k].sealedHash == recs[0].sealedHash, "set-up %d sealed hash %.12s differs from set-up 1's %.12s", k+1, recs[k].sealedHash, recs[0].sealedHash)
		res.check(recs[k].heapHash == recs[0].heapHash, "set-up %d heap model differs from set-up 1's", k+1)
		res.check(recs[k].gain == recs[0].gain, "set-up %d holdout gain %s differs from set-up 1's %s", k+1, recs[k].gain, recs[0].gain)
	}
	if h, err := v2Hash(e.ds.Catalog, e.maint.Recommender()); err != nil || h != e.heapHash {
		res.check(false, "windowed maintainer's initial model differs from profitmining.Build over the same window (err %v)", err)
	}
	if err := sameAnswers(e); err != nil {
		res.check(false, "sealed vs heap answers: %v", err)
	}

	rs := &runState{w: w, e: e, tr: tr, workers: workers, pos: w.window % len(e.ds.Transactions)}
	rs.fresh.called = make(map[int]time.Time)
	rs.fresh.latest.Store(int64(e.st.reg.Active().Version))

	rng := rand.New(rand.NewSource(seed))
	fixedDur := time.Duration(float64(total) * fixedShare)
	ladderDur := time.Duration(float64(total) * ladderShare)
	peak.mark()
	rc0 := readRuntime()
	timedStart := time.Now()
	fixed := rs.phase(e.tf.schedule(rng, int(rate*fixedDur.Seconds())), rate, true, nil)
	e.st.retain.Store(false) // only the fixed-rate phase keeps answers
	peak.mark()
	sustained, steps := rs.ladder(rng, ladderDur)
	peak.mark()
	refresh := rs.refreshPhase(rng, total-fixedDur-ladderDur, w.cycles)
	peak.mark()
	peakMB := peak.stopMB() // the checks below are not the program's
	timed := time.Since(timedStart)
	rc1 := readRuntime()

	cycles := w.cycles
	res.check(len(rs.hashes) == cycles, "%d of %d refresh cycles promoted", len(rs.hashes), cycles)
	res.check(len(rs.fresh.fresh) == cycles, "%d of %d promotions were seen by a response", len(rs.fresh.fresh), cycles)
	if err := checkSamples(rs); err != nil {
		res.check(false, "served answers: %v", err)
	}
	if len(rs.hashes) > 0 {
		final := &profitmining.Dataset{Catalog: e.ds.Catalog, Transactions: e.maint.Window()}
		rec, err := profitmining.Build(final, profitmining.Options{MinSupport: w.minsup})
		if err == nil {
			var h string
			h, err = v2Hash(e.ds.Catalog, rec)
			res.check(err == nil && h == rs.hashes[len(rs.hashes)-1],
				"final window's v2 bytes differ from profitmining.Build over that window")
		}
		res.check(err == nil, "rebuilding the final window: %v", err)
	}
	if err := checkRecord(w, recs[0], rs.hashes); err != nil {
		res.check(false, "%v", err)
	}

	// Per-layer replays run after the timed phases so they cannot
	// disturb them, and only when traced.
	var rep *replays
	if traced {
		var err error
		if rep, err = replay(rs); err != nil {
			res.check(false, "replay: %v", err)
		}
	}

	// End-to-end metrics.
	var okRec, okOut []time.Duration
	for i, d := range fixed.rec {
		if fixed.p.OK[i] {
			okRec = append(okRec, d)
			okOut = append(okOut, fixed.out[i])
		}
	}
	var setupS, buildS, firstMs, genMs []float64
	for _, r := range recs {
		setupS = append(setupS, seconds(r.total))
		buildS = append(buildS, seconds(r.build))
		firstMs = append(firstMs, ms(r.first))
		genMs = append(genMs, ms(r.gen))
	}
	for _, d := range rs.fresh.first {
		firstMs = append(firstMs, ms(d))
	}
	e2e := res.end2end
	e2e["setup_s"] = metric{median(setupS), "s"}
	e2e["time_to_fresh_s"] = metric{median(durs(rs.fresh.fresh, time.Second)), "s"}
	e2e["build_s"] = metric{median(buildS), "s"}
	e2e["seal_s"] = metric{median(sealS), "s"}
	e2e["load_s"] = metric{median(loadS), "s"}
	e2e["sealed_mb"] = metric{float64(len(e.sealed)) / 1e6, "MB"}
	e2e["holdout_gain"] = metric{e.gain, "ratio"}
	e2e["peak_heap_mb"] = metric{peakMB, "MB"}
	e2e["recommend_p50_ms"] = metric{durPercentile(okRec, 50, time.Millisecond), "ms"}

	// The serving tails and the ladder are reported with the per-layer
	// metrics: on a shared 2-vCPU machine they move by half from run to
	// run, more than any bound an end-to-end metric may have.
	var okRefresh []time.Duration
	for i, d := range refresh.rec {
		if refresh.p.OK[i] {
			okRefresh = append(okRefresh, d)
		}
	}
	lg := res.perLayer
	lg["loadgen.recommend_p99_ms"] = metric{durPercentile(okRec, 99, time.Millisecond), "ms"}
	lg["loadgen.outcome_p99_ms"] = metric{durPercentile(nonZero(okOut), 99, time.Millisecond), "ms"}
	lg["loadgen.sustained_rps"] = metric{sustained, "req/s"}
	lg["loadgen.refresh_recommend_p50_ms"] = metric{durPercentile(okRefresh, 50, time.Millisecond), "ms"}
	lg["loadgen.refresh_recommend_p99_ms"] = metric{durPercentile(okRefresh, 99, time.Millisecond), "ms"}

	res.note("%s seed %d: %d set-ups %v, median %.3fs; builds %v; timed phases %.1fs",
		w.name, seed, setups, setupS, median(setupS), buildS, seconds(timed))
	res.note("fixed rate %.0f/s: /recommend p50 %.3fms p99 %.3fms, /outcome p99 %.3fms (%d samples each)",
		rate, e2e["recommend_p50_ms"].Value, lg["loadgen.recommend_p99_ms"].Value, lg["loadgen.outcome_p99_ms"].Value, len(okRec))
	res.note("generator: %d late of %d, lag p50 %.3fms p99 %.3fms max %.3fms, in flight at most %d of %d; %d collections in the timed phases",
		fixed.p.lateCount(), len(fixed.p.Lag), durPercentile(fixed.p.Lag, 50, time.Millisecond),
		durPercentile(fixed.p.Lag, 99, time.Millisecond), ms(fixed.p.maxLag()), fixed.p.InflightMax, workers, rc1.gcCycles-rc0.gcCycles)
	for _, s := range steps {
		res.note("ladder %.0f/s: %d requests, p99 %.3fms, lag growth %.3fms, pass %v", s.rate, s.n, s.p99, ms(s.lag), s.pass)
	}
	res.note("sustained %.0f/s", sustained)
	res.note("refresh phase: %d cycles, time to fresh %v; /recommend p50 %.3fms p99 %.3fms (%d samples)",
		cycles, rs.fresh.fresh, lg["loadgen.refresh_recommend_p50_ms"].Value, lg["loadgen.refresh_recommend_p99_ms"].Value, len(okRefresh))
	res.note("model: sealed %.2f MB, gain %.6f", float64(len(e.sealed))/1e6, e.gain)

	if traced {
		res.spans = tr.snapshot()
		// The overhead bursts come after the snapshot, so their spans
		// stay out of the self times and the written trace.
		overhead, err := tracingOverhead(rs, rng)
		if err != nil {
			res.check(false, "tracing overhead: %v", err)
		}
		perLayer(res, rs, rep, fixed, firstMs, genMs, rc0, rc1, overhead)
	}
	res.attempted, res.failed = rs.attempted.Load(), rs.failed.Load()
	res.note("%d attempted, %d failed", res.attempted, res.failed)
	if msg, ok := rs.firstErr.Load().(string); ok {
		res.note("first failure: %s", msg)
	}
	return res, nil
}

// timeSealLoad times sealLoads Seal and LoadBytes calls on e's model.
// They take milliseconds to tens of milliseconds, so whether a
// collection of the set-up's garbage lands inside one decides its time:
// they are timed apart from the set-up, each from a collected heap, and
// after every set-up, so that the samples spread over the run.
func timeSealLoad(e *env) (sealS, loadS []float64, err error) {
	for k := 0; k < sealLoads; k++ {
		runtime.GC()
		t := time.Now()
		img, err := modelio.Seal(e.ds.Catalog, e.heap)
		sealD := time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("seal: %w", err)
		}
		runtime.GC()
		t = time.Now()
		_, rec, err := modelio.LoadBytes(img)
		loadD := time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("load: %w", err)
		}
		_ = rec.Sealed().Arena().Close() // a heap image: nothing to unmap
		sealS, loadS = append(sealS, seconds(sealD)), append(loadS, seconds(loadD))
	}
	return sealS, loadS, nil
}

// nonZero drops zero durations (requests that sent no outcome).
func nonZero(ds []time.Duration) []time.Duration {
	var out []time.Duration
	for _, d := range ds {
		if d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// sameAnswers checks that the sealed model answers probe baskets with
// the bytes the heap model's live encoder produces, for k=5.
func sameAnswers(e *env) error {
	const probes = 256
	n := 0
	for _, txn := range e.ds.Transactions[len(e.ds.Transactions)/2:] {
		if len(txn.NonTarget) == 0 {
			continue
		}
		if n++; n > probes {
			break
		}
		hs := e.heap.RecommendTopK(txn.NonTarget, 5)
		ss := e.sealRec.RecommendTopK(txn.NonTarget, 5)
		if len(hs) != len(ss) {
			return fmt.Errorf("basket %d: heap gives %d answers, sealed %d", n, len(hs), len(ss))
		}
		rt := e.sealRec.Sealed().Rules()
		for j := range hs {
			want := core.MarshalWire(e.ds.Catalog, e.heap, hs[j])
			if ss[j].Idx < 0 || !bytes.Equal(want, rt.Blob(ss[j].Idx)) {
				return fmt.Errorf("basket %d slot %d: sealed blob differs from heap encoding", n, j)
			}
		}
	}
	return nil
}

// checkSamples replays every kept answer on the snapshot whose version
// served it: the top-1 item, promotion index and rule ID must equal the
// snapshot's own Recommend.
func checkSamples(rs *runState) error {
	if len(rs.samples) == 0 {
		return fmt.Errorf("no answers were kept")
	}
	for _, s := range rs.samples {
		snap := rs.e.st.snapshot(s.version)
		if snap == nil {
			return fmt.Errorf("answer from unknown version %d", s.version)
		}
		b, err := rs.e.tf.basket(snap.Cat, s.txn)
		if err != nil {
			return err
		}
		r := snap.Rec.Recommend(b)
		item := snap.Cat.Item(r.Item).Name
		ix := core.PromoIndex(snap.Cat, r.Item, r.Promo)
		if item != s.item || ix != s.promoIx || r.ID != s.ruleID {
			return fmt.Errorf("v%d basket %d: served (%s, %d, %s), model says (%s, %d, %s)",
				s.version, s.txn, s.item, s.promoIx, s.ruleID, item, ix, r.ID)
		}
	}
	return nil
}

// checkRecord compares this run's deterministic outputs with the first
// run of the same workload by the same benchmark binary in this
// checkout, or records them if this is that first run: the sealed
// image, the holdout gain and the sequence of promoted hashes depend on
// the workload's fixed dataset and the code alone, so they must repeat
// exactly whatever the seed, traced or not. The record is keyed by a
// hash of the binary, which links in every package of the repository,
// so a change to the code starts a new record instead of being compared
// with the old code's outputs.
func checkRecord(w workload, r setupRecord, hashes []string) error {
	bin, err := binaryHash()
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	want := strings.Join(append([]string{"sealed " + r.sealedHash, "gain " + r.gain}, hashes...), "\n") + "\n"
	path := filepath.Join(".bench_build", "expect", w.name+"-"+bin+".txt")
	got, err := os.ReadFile(path)
	if err == nil {
		if string(got) != want {
			return fmt.Errorf("outputs differ from an earlier run of %s by the same binary (%s)", w.name, path)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(want), 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return os.Rename(tmp, path)
}

// binaryHash is the first 16 hex digits of the sha256 of the running
// executable.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
