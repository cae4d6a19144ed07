package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"profitmining/internal/model"
	"profitmining/internal/modelio"
	"profitmining/internal/registry"
)

// workload fixes the inputs of one benchmark workload. Both workloads
// run the whole loop — offline build, seal and load, open-loop serving
// with outcomes, a rate ladder, and windowed delta refreshes under
// traffic — and differ in scale, which moves the cost between layers.
type workload struct {
	name          string
	txns, items   int     // dataset I scale
	window, slide int     // training window and refresh slide, in transactions
	minsup        float64 // minimum support of every build
	cycles        int     // refresh cycles, after the ladder
}

// rate is the nominal /recommend rate, per second, of the fixed-rate
// and refresh phases and the ladder's first step: the default of the
// repository's existing open-loop profile, profitbench -soakqps.
const rate = 200.0

var workloads = []workload{
	{
		// The deployed sealed-image request path at the larger model:
		// reads and WAL writes. Its refreshes slide a big window, where
		// mining a batch is cheap next to the covering tree.
		name: "serve_steady", txns: 10000, items: 200, window: 8000, slide: 256, minsup: 0.01,
		cycles: 4,
	},
	{
		// The write side at the soak CI scale: each refresh re-mines a
		// batch that is an eighth of its window, competing with serving
		// for both cores, and each promotion hands the next request a
		// heap model whose blob cache is cold.
		name: "serve_drift", txns: 4000, items: 120, window: 2048, slide: 256, minsup: 0.01,
		cycles: 4,
	},
}

// Shares of --seconds: the fixed-rate phase, then the ladder; the
// refresh phase that follows lasts at least the rest, and until its
// cycles are done.
const (
	fixedShare  = 0.4
	ladderShare = 0.3
)

// setups is how many times each run sets up from scratch; setup_s is
// the median, and every set-up must produce identical models.
const setups = 3

// sealLoads is how many Seal and LoadBytes calls a run times after each
// set-up, apart from it, for seal_s and load_s.
const sealLoads = 5

// sampleEvery keeps one response in this many for the answer check and
// the per-layer replays.
const sampleEvery = 8

// latencyLimitMs is the p99 limit, from due time, a ladder rate must
// meet to count as sustained. It sits well above the millisecond stalls
// this class of machine shows at any rate (collections, host noise), so
// that a step fails when a queue builds, not when one stall lands in it.
const latencyLimitMs = 25.0

// The ladder tries at most ladderDoublings rates, doubling from the
// nominal rate until one fails (up to 25600/s), then bisects
// ladderBisects times between the last pass and the first fail: a
// resolution of 2^(1/16), about 4%.
const (
	ladderDoublings = 8
	ladderBisects   = 4
)

// sample is one served answer kept for checking and replay.
type sample struct {
	txn     int
	topK    bool
	version int
	item    string
	promoIx int
	ruleID  string
}

// freshness tracks, per model version, when the call that produced it
// started and when the first response carrying it arrived.
type freshness struct {
	latest atomic.Int64
	mu     sync.Mutex
	called map[int]time.Time
	fresh  []time.Duration // call start → first response with the version
	first  []time.Duration // client latency of that first response
}

func (f *freshness) expect(v int, at time.Time) {
	f.mu.Lock()
	f.called[v] = at
	f.mu.Unlock()
}

func (f *freshness) seen(v int, lat time.Duration) {
	if int64(v) <= f.latest.Load() {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if int64(v) <= f.latest.Load() {
		return
	}
	f.latest.Store(int64(v))
	f.first = append(f.first, lat)
	if at, ok := f.called[v]; ok {
		f.fresh = append(f.fresh, time.Since(at))
	}
}

// runState is the serving part of one run, on the last set-up's env.
type runState struct {
	w       workload
	e       *env
	tr      *tracer
	workers int

	fresh     freshness
	attempted atomic.Int64
	failed    atomic.Int64
	trace     atomic.Int64 // request ids, for spans
	firstErr  atomic.Value

	smu     sync.Mutex
	samples []sample

	// Refresh cycles, written only by the refresh phase's goroutine and
	// read after it ends: where the next traced slide starts, the batch
	// start of every cycle, and every hash promoted.
	pos     int
	batches []int
	hashes  []string
}

func (rs *runState) noteErr(err error) {
	rs.failed.Add(1)
	rs.firstErr.CompareAndSwap(nil, err.Error())
}

// phaseResult is one open-loop phase: the pacer record, and per request
// the /recommend latency from its due time and the /outcome latency from
// its send (0 where no outcome was sent).
type phaseResult struct {
	p        *paced
	rec, out []time.Duration
	traceLo  int64 // request ids of the phase are in (traceLo, traceHi]
	traceHi  int64
}

// phase runs one open-loop phase of reqs at perSec requests a second.
// Every answered /recommend is followed by the /outcome of its top
// recommendation. With keep, every sampleEvery-th answer is kept for
// checks and replays.
func (rs *runState) phase(reqs []request, perSec float64, keep bool, stop <-chan struct{}) *phaseResult {
	ph := &phaseResult{
		rec:     make([]time.Duration, len(reqs)),
		out:     make([]time.Duration, len(reqs)),
		traceLo: rs.trace.Load(),
	}
	ph.p = pace(perSec, len(reqs), rs.workers, stop, func(i int, due time.Time) bool {
		r := reqs[i]
		trace := rs.trace.Add(1)
		sent := time.Now()
		rs.attempted.Add(1)
		a, err := rs.e.st.recommend(rs.e.tf.payload(r), trace)
		ph.rec[i] = time.Since(due)
		if err != nil {
			rs.noteErr(err)
			return false
		}
		rs.fresh.seen(a.ModelVersion, time.Since(sent))
		if len(a.Recommendations) == 0 {
			return true
		}
		top := a.Recommendations[0]
		if keep && i%sampleEvery == 0 {
			rs.smu.Lock()
			rs.samples = append(rs.samples, sample{txn: r.txn, topK: r.topK, version: a.ModelVersion,
				item: top.Item, promoIx: top.PromoIx, ruleID: top.RuleID})
			rs.smu.Unlock()
		}
		bought := r.u < rs.e.tf.buy.Probability(r.cell, top.Item, top.PromoIx)
		t := time.Now()
		rs.attempted.Add(1)
		err = rs.e.st.outcome(outcomeReq{
			RequestID:    "q" + strconv.FormatInt(trace, 10),
			RuleID:       top.RuleID,
			ModelVersion: a.ModelVersion,
			Bought:       bought,
		}, trace)
		ph.out[i] = time.Since(t)
		if err != nil {
			rs.noteErr(err)
			return false
		}
		return true
	})
	ph.traceHi = rs.trace.Load()
	ph.rec, ph.out = ph.rec[:len(ph.p.OK)], ph.out[:len(ph.p.OK)]
	return ph
}

// refreshPhase runs traffic at the nominal rate while n refresh cycles
// run one after another, the j-th starting no earlier than j/n of the
// way through d; the traffic stops when the last cycle has been seen.
func (rs *runState) refreshPhase(rng *rand.Rand, d time.Duration, n int) *phaseResult {
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for j := 0; j < n; j++ {
			if wait := time.Until(start.Add(time.Duration(j) * d / time.Duration(n))); wait > 0 {
				time.Sleep(wait)
			}
			if err := rs.cycle(); err != nil {
				rs.noteErr(err)
				continue
			}
			rs.awaitSeen()
		}
	}()
	// Room for every cycle to take ten seconds; the phase ends sooner.
	reqs := rs.e.tf.schedule(rng, int(rate*(d.Seconds()+10*float64(n))))
	ph := rs.phase(reqs, rate, false, done)
	<-done
	return ph
}

// awaitSeen waits until a response has carried the active version, so
// that the next cycle cannot supersede it unseen. Traffic normally shows
// it within milliseconds; past a second it probes.
func (rs *runState) awaitSeen() {
	want := int64(rs.e.st.reg.Active().Version)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if rs.fresh.latest.Load() >= want {
			return
		}
	}
	rs.probeLatest()
}

// probeLatest sends untimed requests until a response carries the
// active version, for a cycle that promoted after its phase ended.
func (rs *runState) probeLatest() {
	rng := rand.New(rand.NewSource(int64(rs.w.txns)))
	want := int64(rs.e.st.reg.Active().Version)
	for i := 0; i < 100 && rs.fresh.latest.Load() < want; i++ {
		r := rs.e.tf.schedule(rng, 1)[0]
		t := time.Now()
		rs.attempted.Add(1)
		a, err := rs.e.st.recommend(rs.e.tf.payload(r), 0)
		if err != nil {
			rs.noteErr(err)
			continue
		}
		rs.fresh.seen(a.ModelVersion, time.Since(t))
	}
}

// cycle is one drift cycle: slide the window by one batch, serialize
// for the content hash, submit. Untraced it is the Refresher.Refresh
// call the drift hook makes; traced it makes the same calls one layer
// at a time.
func (rs *runState) cycle() error {
	e := rs.e
	v := e.st.reg.Active().Version + 1
	rs.fresh.expect(v, time.Now())
	pos := rs.pos
	rs.batches = append(rs.batches, pos)
	rs.pos = (rs.pos + rs.w.slide) % len(e.ds.Transactions)
	rs.attempted.Add(1)

	var snap *registry.Snapshot
	if rs.tr == nil {
		s, outcome, err := e.refr.Refresh()
		if err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		if outcome != registry.Promoted {
			return fmt.Errorf("refresh: outcome %s, want promoted", outcome)
		}
		snap = s
	} else {
		tr := rs.tr
		root := tr.begin("incremental", "Refresh", 0, 0)
		var err error
		var buf bytes.Buffer
		batch := rs.batch(pos)
		tr.do("incremental", "Maintainer.Slide", root, func(int) { _, err = e.maint.Slide(batch) })
		if err != nil {
			tr.end(root)
			return fmt.Errorf("slide: %w", err)
		}
		rec := e.maint.Recommender()
		tr.do("modelio", "Save", root, func(int) { err = modelio.Save(&buf, e.ds.Catalog, nil, rec) })
		if err != nil {
			tr.end(root)
			return fmt.Errorf("save: %w", err)
		}
		snap, err = e.st.submit(e.ds.Catalog, rec, "delta refresh", registry.HashBytes(buf.Bytes()), root)
		tr.end(root)
		if err != nil {
			return err
		}
		// Submit validates inside; this replay times that gate alone,
		// after the cycle so the promotion is not delayed by it.
		tr.do("registry", "Validate", 0, func(int) { err = registry.Validate(e.ds.Catalog, rec, nil) })
		if err != nil {
			return fmt.Errorf("validate: %w", err)
		}
	}
	if snap.Version != v {
		return fmt.Errorf("refresh promoted version %d, want %d", snap.Version, v)
	}
	rs.hashes = append(rs.hashes, snap.Hash)
	return nil
}

// batch returns the slide batch starting at pos, wrapping around the
// dataset the way the Refresher does.
func (rs *runState) batch(pos int) []model.Transaction {
	src := rs.e.ds.Transactions
	out := make([]model.Transaction, rs.w.slide)
	for i := range out {
		out[i] = src[(pos+i)%len(src)]
	}
	return out
}

// ladderStep is one rate of the ladder.
type ladderStep struct {
	rate float64
	p99  float64 // ms from due time, failures as misses
	lag  time.Duration
	n    int
	pass bool
}

// ladder finds the highest rate at which the p99 from due time, with
// failed requests counted as misses, stays within latencyLimitMs and
// the generator does not fall further and further behind: it doubles
// the rate from nominal until a step fails, then bisects (geometrically)
// between the last pass and the first fail.
func (rs *runState) ladder(rng *rand.Rand, budget time.Duration) (float64, []ladderStep) {
	stepDur := budget / 14 // a typical ladder: 7 doublings, 4 bisections, 3 retries
	var steps []ladderStep
	step := func(r float64) bool {
		n := int(r * stepDur.Seconds())
		ph := rs.phase(rs.e.tf.schedule(rng, n), r, false, nil)
		st := ladderStep{rate: r, p99: tailWithMisses(ph.rec, ph.p.OK, 99), lag: ph.p.lagGrowth(), n: n}
		st.pass = st.p99 <= latencyLimitMs && ms(st.lag) <= latencyLimitMs/4
		steps = append(steps, st)
		return st.pass
	}
	// A rate fails only when two steps at it fail: one stall of the
	// machine (a collection, a busy neighbour) spoils one short step,
	// while a rate the server cannot sustain fails every time.
	try := func(r float64) bool { return step(r) || step(r) }
	pass, fail := 0.0, 0.0
	for r, k := rate, 0; k < ladderDoublings; r, k = r*2, k+1 {
		if !try(r) {
			fail = r
			break
		}
		pass = r
	}
	for k := 0; k < ladderBisects && fail > 0; k++ {
		mid := fail / 2
		if pass > 0 {
			mid = math.Sqrt(pass * fail)
		}
		if try(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, steps
}
