package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/rules"
)

// layers are the modules a span can belong to; each gets a self time.
// "bench" is the benchmark's own code between layer calls.
var layers = []string{
	"bench", "loadgen", "serve", "hierarchy", "rules", "core", "mining", "incremental",
	"modelio", "arena", "registry", "feedback", "eval", "datagen", "profitmining",
}

// replays holds the per-call timings and counts of the traced run's
// replays of served baskets.
type replays struct {
	expandNs, top1Ns, topKNs []float64
	altMatches               []float64
}

// replay re-runs, after the timed phases, what the per-layer metrics
// need and the server cannot time from outside: each kept answer's
// basket through the layers one call at a time, the cold blob-cache
// marshal of every rule, and the refresh slides through the stream miner
// and the covering-tree delta separately. The replayed slides must end
// on the model the last refresh promoted.
func replay(rs *runState) (*replays, error) {
	tr, e, w := rs.tr, rs.e, rs.w
	root := tr.begin("bench", "replay", 0, 0)
	defer tr.end(root)
	rep := &replays{}

	space := e.heap.Space()
	var alt *rules.Matcher
	tr.do("rules", "NewMatcher(alternates)", root, func(int) { alt = rules.NewMatcher(e.heap.Alternates()) })
	var (
		expanded []hierarchy.GenID
		matches  []*rules.Rule
		dst      []core.Recommendation
	)
	id := tr.begin("bench", "served baskets", root, 0)
	for _, s := range rs.samples {
		b, err := e.tf.basket(e.ds.Catalog, s.txn)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		t := time.Now()
		expanded = space.ExpandBasketInto(expanded, b)
		rep.expandNs = append(rep.expandNs, float64(time.Since(t)))
		if s.topK {
			matches = alt.AppendMatches(matches[:0], expanded)
			rep.altMatches = append(rep.altMatches, float64(len(matches)))
		}
		snap := e.st.snapshot(s.version)
		sb, err := e.tf.basket(snap.Cat, s.txn)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		t = time.Now()
		snap.Rec.Recommend(sb)
		rep.top1Ns = append(rep.top1Ns, float64(time.Since(t)))
		if s.topK {
			t = time.Now()
			dst = snap.Rec.RecommendTopKInto(dst, sb, 5)
			rep.topKNs = append(rep.topKNs, float64(time.Since(t)))
		}
	}
	tr.end(id)

	tr.do("core", "MarshalWire(all)", root, func(int) {
		seen := make(map[*rules.Rule]bool)
		for _, rs := range [][]*rules.Rule{e.heap.Rules(), e.heap.Alternates()} {
			for _, r := range rs {
				if !seen[r] {
					seen[r] = true
					core.MarshalWire(e.ds.Catalog, e.heap,
						core.Recommendation{Item: space.ItemOf(r.Head), Promo: space.PromoOf(r.Head), Rule: r})
				}
			}
		}
	})

	if len(rs.batches) == 0 {
		return rep, nil
	}
	opts := mining.Options{MinSupport: w.minsup}
	var (
		stream *mining.Stream
		tree   *core.TreeDelta
		rec    *core.Recommender
		mined  *mining.Result
		err    error
	)
	tr.do("mining", "NewStream", root, func(int) { stream, err = mining.NewStream(e.space, e.ds.Transactions[:w.window], opts) })
	if err == nil {
		tree, err = core.NewTreeDelta(e.space, core.Config{})
	}
	if err == nil {
		tr.do("core", "TreeDelta.Update(initial)", root, func(int) {
			rec, err = tree.Update(stream.Window(), stream.ExpandedBodies(), stream.Result(), 0)
		})
	}
	for _, pos := range rs.batches {
		if err != nil {
			break
		}
		batch := rs.batch(pos)
		evict := max(stream.Len()+len(batch)-w.window, 0)
		tr.do("mining", "Stream.Slide", root, func(int) { mined, err = stream.Slide(batch, evict) })
		if err == nil {
			tr.do("core", "TreeDelta.Update", root, func(int) {
				rec, err = tree.Update(stream.Window(), stream.ExpandedBodies(), mined, evict)
			})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("slide replay: %w", err)
	}
	h, err := v2Hash(e.ds.Catalog, rec)
	if err != nil {
		return nil, err
	}
	if h != rs.hashes[len(rs.hashes)-1] {
		return nil, fmt.Errorf("slide replay ends on %.12s, the last refresh promoted %.12s", h, rs.hashes[len(rs.hashes)-1])
	}
	return rep, nil
}

// perLayer fills res.perLayer from the spans, the replays and the run's
// counters.
func perLayer(res *result, rs *runState, rep *replays, fixed *phaseResult,
	firstMs, genMs []float64, rc0, rc1 runtimeCounters, overhead float64) {
	spans := res.spans
	m := res.perLayer
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(layer, name string, unit time.Duration) float64 {
		return median(durs(durations(spans, layer, name), unit))
	}

	// Server spans and client gaps of the fixed-rate phase.
	inFixed := func(s span) bool { return s.Trace > fixed.traceLo && s.Trace <= fixed.traceHi }
	childDur := make(map[int]time.Duration)
	var recSrv, outSrv []time.Duration
	for _, s := range spans {
		if s.Layer != "serve" || s.End == 0 || !inFixed(s) {
			continue
		}
		d := s.End - s.Start
		childDur[s.Parent] += d
		switch s.Name {
		case "/recommend":
			recSrv = append(recSrv, d)
		case "/outcome":
			outSrv = append(outSrv, d)
		}
	}
	var gaps []time.Duration
	for i, s := range spans {
		if s.Layer == "loadgen" && s.Name == "POST /recommend" && s.End > 0 && inFixed(s) {
			gaps = append(gaps, s.End-s.Start-childDur[i+1])
		}
	}
	put("serve.recommend_p50_us", durPercentile(recSrv, 50, time.Microsecond), "us")
	put("serve.recommend_p99_us", durPercentile(recSrv, 99, time.Microsecond), "us")
	put("serve.outcome_p50_us", durPercentile(outSrv, 50, time.Microsecond), "us")
	put("serve.outcome_p99_us", durPercentile(outSrv, 99, time.Microsecond), "us")
	put("serve.client_gap_p50_us", durPercentile(gaps, 50, time.Microsecond), "us")
	put("serve.first_request_ms", median(firstMs), "ms")
	put("serve.register_snapshot_ms", med("serve", "RegisterSnapshot", time.Millisecond), "ms")

	put("hierarchy.compile_ms", med("hierarchy", "CompileSpace", time.Millisecond), "ms")
	put("datagen.generate_ms", median(genMs), "ms")
	if rep != nil {
		put("hierarchy.expand_p50_ns", median(rep.expandNs), "ns")
		put("rules.alt_matches_per_topk", mean(rep.altMatches), "count")
		put("core.recommend_top1_p50_ns", median(rep.top1Ns), "ns")
		put("core.recommend_topk_p50_ns", median(rep.topKNs), "ns")
	}

	e := rs.e
	st := e.heap.Stats()
	put("core.marshal_all_ms", med("core", "MarshalWire(all)", time.Millisecond), "ms")
	put("core.prune_s", med("core", "Build", time.Second), "s")
	put("core.tree_update_ms", med("core", "TreeDelta.Update", time.Millisecond), "ms")
	put("core.rules_final", float64(st.RulesFinal), "count")
	put("core.rule_table_rows", float64(e.sealRec.Sealed().Rules().N()), "count")
	put("mining.mine_s", med("mining", "Mine", time.Second), "s")
	put("mining.rules_generated", float64(st.RulesGenerated), "count")
	put("mining.rules_nondominated", float64(st.RulesNonDominated), "count")
	put("mining.stream_slide_ms", med("mining", "Stream.Slide", time.Millisecond), "ms")
	put("incremental.slide_ms", med("incremental", "Maintainer.Slide", time.Millisecond), "ms")
	put("incremental.refresh_ms", med("incremental", "Refresh", time.Millisecond), "ms")

	put("modelio.seal_ms", med("modelio", "Seal", time.Millisecond), "ms")
	put("modelio.save_ms", med("modelio", "Save", time.Millisecond), "ms")
	put("modelio.load_ms", med("modelio", "LoadBytes", time.Millisecond), "ms")
	put("arena.open_us", med("arena", "OpenBytes", time.Microsecond), "us")
	put("arena.verify_ms", med("arena", "Verify", time.Millisecond), "ms")
	rt := e.sealRec.Sealed().Rules()
	var blob, expl, str int
	for i := int32(0); int(i) < rt.N(); i++ {
		blob += len(rt.Blob(i))
		expl += len(rt.ExplainJoined(i))
		str += len(rt.String(i))
	}
	put("arena.blob_bytes", float64(blob), "bytes")
	put("arena.explain_bytes", float64(expl), "bytes")
	put("arena.rulestr_bytes", float64(str), "bytes")

	// Registry calls of the refresh cycles: the set-up submits a sealed
	// model, the cycles heap models, and the cycles are what a drift
	// change moves.
	var submits []time.Duration
	for _, s := range spans {
		if s.Layer == "registry" && s.Name == "Submit" && s.End > 0 && s.Parent > 0 && spans[s.Parent-1].Name == "Refresh" {
			submits = append(submits, s.End-s.Start)
		}
	}
	put("registry.submit_ms", durPercentile(submits, 50, time.Millisecond), "ms")
	put("registry.validate_ms", med("registry", "Validate", time.Millisecond), "ms")

	fs := e.st.fb.Stats(-1)
	walBytes, _, _ := e.st.fb.LogSize() // an unreadable WAL directory reads as 0 bytes
	put("feedback.outcomes", float64(fs.Outcomes), "count")
	put("feedback.drift_alarms", float64(e.st.alarms.Load()), "count")
	put("feedback.wal_bytes", float64(walBytes), "bytes")

	put("runtime.gc_pause_p99_us", histDeltaQuantile(rc0.pauses, rc1.pauses, 0.99)*1e6, "us")
	put("runtime.gc_cycles", float64(rc1.gcCycles-rc0.gcCycles), "count")
	put("runtime.sched_latency_p99_us", histDeltaQuantile(rc0.sched, rc1.sched, 0.99)*1e6, "us")

	put("loadgen.late_ratio", float64(fixed.p.lateCount())/float64(len(fixed.p.Lag)), "ratio")
	put("loadgen.max_lag_ms", ms(fixed.p.maxLag()), "ms")
	put("loadgen.inflight_max", float64(fixed.p.InflightMax), "count")

	self := selfTimes(spans)
	for _, l := range layers {
		put(l+".self_ms", ms(self[l]), "ms")
	}
	put("trace.overhead_ratio", overhead, "ratio")
}

// The tracing overhead is measured over overheadRounds rounds, each
// running one burst of overheadBurst requests untraced and the same
// burst traced.
const (
	overheadRounds = 16
	overheadBurst  = 2000
)

// tracingOverhead measures what recording spans adds to the request
// path, the only place the traced run records many: the tracer's lock,
// taken by every client and server goroutine, the span header and the
// server-side wrapper. Each round sends the same burst closed-loop from
// every worker once with the tracer paused and once recording, in
// alternating order; the result is the median over rounds of the traced
// burst's wall time over the untraced one's, minus 1. It can read
// slightly below 0 when the overhead is within the machine's noise.
func tracingOverhead(rs *runState, rng *rand.Rand) (float64, error) {
	reqs := rs.e.tf.schedule(rng, overheadBurst)
	burst := func(traced bool) (time.Duration, error) {
		rs.tr.paused.Store(!traced)
		defer rs.tr.paused.Store(false)
		var next atomic.Int64
		var failed atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < rs.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
					rs.attempted.Add(1)
					if _, err := rs.e.st.recommend(rs.e.tf.payload(reqs[i]), 0); err != nil {
						rs.noteErr(err)
						failed.CompareAndSwap(nil, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err, ok := failed.Load().(error); ok {
			return 0, err
		}
		return time.Since(start), nil
	}
	ratios := make([]float64, 0, overheadRounds)
	for k := 0; k < overheadRounds; k++ {
		var on, off time.Duration
		var err error
		if k%2 == 0 {
			if off, err = burst(false); err == nil {
				on, err = burst(true)
			}
		} else {
			if on, err = burst(true); err == nil {
				off, err = burst(false)
			}
		}
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	return median(ratios) - 1, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
