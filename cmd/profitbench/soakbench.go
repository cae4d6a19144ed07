package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"profitmining"
	"profitmining/internal/cluster"
	"profitmining/internal/datagen"
	"profitmining/internal/feedback"
	"profitmining/internal/incremental"
	"profitmining/internal/mining"
	"profitmining/internal/quest"
	"profitmining/internal/registry"
	"profitmining/internal/serve"
	"profitmining/internal/simload"
)

// soakParams bundles the -soakbench knobs.
type soakParams struct {
	txns, items   int
	minsup        float64
	window, slide int
	users         int
	seed          int64
	virtSecs      float64
	rate          float64 // base session arrivals per virtual second
	qps           float64 // open-loop wall-clock target rate
	wallSecs      float64 // open-loop wall-clock duration
	maxP99Ms      float64 // /recommend p99 budget, both topologies
	checkEvery    int     // cluster WAL-ship cadence, in acked outcomes
	out           string
	url           string // external target ("" = in-process topologies)
}

// soakDrift is the Page-Hinkley tuning the soak stacks run with: tight
// enough that the mid-run behavior shock trips the alarm within a few
// hundred outcomes, loose enough that calibrated pre-shock traffic
// doesn't. The same values drive the smoke script's external server.
var soakDrift = feedback.DriftConfig{Delta: 0.002, Lambda: 8, MinObservations: 50}

// soakTopology reports one topology's virtual-clock soak (two identical
// runs folded together; Deterministic is the byte-identity verdict).
type soakTopology struct {
	Sessions        int64   `json:"sessions"`
	Steps           int64   `json:"steps"`
	Recommends      int64   `json:"recommends"`
	NoRec           int64   `json:"noRec"`
	Outcomes        int64   `json:"outcomes"`
	Conversions     int64   `json:"conversions"`
	DriftAlarms     int64   `json:"driftAlarms"`
	Promotions      int     `json:"promotions"` // model promotions beyond the initial submit
	DroppedOutcomes int64   `json:"droppedOutcomes"`
	Aggregated      int64   `json:"aggregated,omitempty"` // cluster: outcomes folded into the coordinator spool
	RecommendP99Ms  float64 `json:"recommendP99Ms"`       // server-side, from /metrics
	StatsSHA256     string  `json:"statsSHA256"`
	Deterministic   bool    `json:"deterministic"`
}

// soakOpenLoop reports the wall-clock open-loop phase (client-side
// latency; informational except for the dropped ledger).
type soakOpenLoop struct {
	TargetQPS      float64 `json:"targetQPS"`
	AchievedQPS    float64 `json:"achievedQPS"`
	Seconds        float64 `json:"seconds"`
	Requests       int64   `json:"requests"`
	Outcomes       int64   `json:"outcomes"`
	Conversions    int64   `json:"conversions"`
	LateDispatches int64   `json:"lateDispatches"`
	Dropped        int64   `json:"dropped"`
	RecommendP50Ms float64 `json:"recommendP50Ms"`
	RecommendP99Ms float64 `json:"recommendP99Ms"`
	OutcomeP99Ms   float64 `json:"outcomeP99Ms"`
}

// soakReport is the schema of the -soakbench JSON artifact
// (BENCH_soak.json) consumed by CI.
type soakReport struct {
	Dataset        string  `json:"dataset"`
	Txns           int     `json:"txns"`
	Items          int     `json:"items"`
	MinSupport     float64 `json:"minSupport"`
	Window         int     `json:"window"`
	Slide          int     `json:"slide"`
	Users          int     `json:"users"`
	Seed           int64   `json:"seed"`
	VirtualSeconds float64 `json:"virtualSeconds"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	MaxP99Ms       float64 `json:"maxP99Ms"`
	ExternalURL    string  `json:"externalURL,omitempty"`

	Single   *soakTopology `json:"single,omitempty"`
	Cluster  *soakTopology `json:"cluster,omitempty"`
	OpenLoop *soakOpenLoop `json:"openLoop,omitempty"`

	GatesPassed bool `json:"gatesPassed"`
}

// runSoakBench drives the closed-loop soak: two identical virtual-clock
// runs per topology (single node and 3-replica coordinator fleet) whose
// final /feedback/stats must match byte for byte, plus one wall-clock
// open-loop run for latency numbers. Writes BENCH_soak.json and exits
// non-zero if any gate fails.
func runSoakBench(p soakParams) {
	ds, truth := genSoakDataset(p.txns, p.items, p.seed)
	rep := soakReport{
		Dataset:        "I",
		Txns:           p.txns,
		Items:          p.items,
		MinSupport:     p.minsup,
		Window:         p.window,
		Slide:          p.slide,
		Users:          p.users,
		Seed:           p.seed,
		VirtualSeconds: p.virtSecs,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		MaxP99Ms:       p.maxP99Ms,
		ExternalURL:    p.url,
	}

	if p.url != "" {
		rep.Single = runSoakExternal(ds, truth, p)
		rep.GatesPassed = rep.Single.DroppedOutcomes == 0 &&
			rep.Single.Outcomes > 0 &&
			rep.Single.DriftAlarms >= 1 &&
			rep.Single.Promotions >= 1
		writeSoakReport(rep, p)
		return
	}

	fmt.Printf("soakbench: dataset I |T|=%d |I|=%d minsup %g, window %d/%d, %d users, %gs virtual\n",
		p.txns, p.items, p.minsup, p.window, p.slide, p.users, p.virtSecs)

	//lint:allow atomiczone -- bench result of a completed run, not a request-scoped snapshot
	rep.Single = runSoakSingle(ds, truth, p)
	fmt.Printf("soakbench: single: %d sessions, %d outcomes, %d conversions, %d drift alarms, %d promotions, p99 %.2fms, deterministic=%v\n",
		rep.Single.Sessions, rep.Single.Outcomes, rep.Single.Conversions,
		rep.Single.DriftAlarms, rep.Single.Promotions, rep.Single.RecommendP99Ms, rep.Single.Deterministic)

	//lint:allow atomiczone -- bench result of a completed run, not a request-scoped snapshot
	rep.Cluster = runSoakCluster(ds, truth, p)
	fmt.Printf("soakbench: cluster: %d outcomes (%d aggregated), %d drift alarms, %d promotions, p99 %.2fms, deterministic=%v\n",
		rep.Cluster.Outcomes, rep.Cluster.Aggregated, rep.Cluster.DriftAlarms,
		rep.Cluster.Promotions, rep.Cluster.RecommendP99Ms, rep.Cluster.Deterministic)

	rep.OpenLoop = runSoakOpenLoop(ds, truth, p)
	fmt.Printf("soakbench: open loop: %.0f/%.0f qps, client /recommend p50 %.2fms p99 %.2fms, %d late, %d dropped\n",
		rep.OpenLoop.AchievedQPS, rep.OpenLoop.TargetQPS,
		rep.OpenLoop.RecommendP50Ms, rep.OpenLoop.RecommendP99Ms,
		rep.OpenLoop.LateDispatches, rep.OpenLoop.Dropped)

	gates := []struct {
		name string
		ok   bool
	}{
		{"single deterministic", rep.Single.Deterministic},
		{"cluster deterministic", rep.Cluster.Deterministic},
		{"single zero dropped", rep.Single.DroppedOutcomes == 0},
		{"cluster zero dropped", rep.Cluster.DroppedOutcomes == 0},
		{"single drift→promote cycle", rep.Single.DriftAlarms >= 1 && rep.Single.Promotions >= 1},
		{"cluster drift→promote cycle", rep.Cluster.DriftAlarms >= 1 && rep.Cluster.Promotions >= 1},
		{"single /recommend p99 budget", rep.Single.RecommendP99Ms <= p.maxP99Ms},
		{"cluster /recommend p99 budget", rep.Cluster.RecommendP99Ms <= p.maxP99Ms},
		{"open loop zero dropped", rep.OpenLoop.Dropped == 0},
	}
	rep.GatesPassed = true
	for _, g := range gates {
		if !g.ok {
			rep.GatesPassed = false
			fmt.Printf("soakbench: GATE FAILED: %s\n", g.name)
		}
	}
	writeSoakReport(rep, p)
}

func writeSoakReport(rep soakReport, p soakParams) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(p.out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("soakbench: report: %s\n", p.out)
	if !rep.GatesPassed {
		fail(fmt.Errorf("soakbench: acceptance gates failed"))
	}
	fmt.Println("soakbench: all gates passed")
}

// genSoakDataset regenerates dataset I with its ground truth, matching
// genDataset("I", ...) byte for byte — and therefore matching a dataset
// file written by `profitgen -dataset I` with the same scale and seed,
// which is what lets scripts/soak_smoke.sh soak an external profitserve
// trained on such a file.
func genSoakDataset(txns, items int, seed int64) (*profitmining.Dataset, *datagen.GroundTruth) {
	ds, truth, err := datagen.GenerateWithTruth(datagen.DatasetIConfig(quest.Config{
		NumTransactions: txns,
		NumItems:        items,
		Seed:            seed,
	}, seed+1))
	if err != nil {
		fail(err)
	}
	return ds, truth
}

// soakSimConfig is the shared virtual-clock traffic profile: diurnal
// cycle spanning the run, periodic 2× bursts, and a behavior shock at
// half time that slashes purchase probability — the drift the closed
// loop must detect and refresh through.
func soakSimConfig(base string, ds *profitmining.Dataset, truth *datagen.GroundTruth, p soakParams) simload.Config {
	return simload.Config{
		BaseURL:  base,
		Dataset:  ds,
		Truth:    truth,
		Users:    p.users,
		Seed:     p.seed,
		Duration: p.virtSecs,
		Arrival: simload.ArrivalConfig{
			BaseRate:    p.rate,
			DayLength:   p.virtSecs / 2,
			DiurnalAmp:  0.4,
			BurstEvery:  p.virtSecs / 3,
			BurstLen:    p.virtSecs / 20,
			BurstFactor: 2,
		},
		MeanSessionSteps: 3,
		MeanThink:        0.5,
		ShockAt:          p.virtSecs / 2,
		ShockFactor:      0.05,
	}
}

// soakNode is one single-node serve stack with windowed maintenance:
// in-memory collector with the soak drift tuning, registry promoting
// into the collector, and a delta refresher answering drift alarms.
type soakNode struct {
	fb        *feedback.Collector
	reg       *registry.Registry
	refresher *incremental.Refresher
	ts        *httptest.Server
}

func newSoakNode(ds *profitmining.Dataset, p soakParams) *soakNode {
	fb, _, err := feedback.Open(feedback.Config{Drift: soakDrift})
	if err != nil {
		fail(err)
	}
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		fail(err)
	}
	refresher := newSoakRefresher(ds, p, reg)
	ts := httptest.NewServer(serve.NewRegistry(reg, nil, fb).Handler())
	return &soakNode{fb: fb, reg: reg, refresher: refresher, ts: ts}
}

// newSoakRefresher builds the initial windowed model, submits it to reg
// (promoting it), and returns the refresher that slides the window on
// each drift alarm — the same wiring profitserve -window uses.
func newSoakRefresher(ds *profitmining.Dataset, p soakParams, reg *registry.Registry) *incremental.Refresher {
	window := p.window
	if window > len(ds.Transactions) {
		window = len(ds.Transactions)
	}
	space, err := profitmining.CompileSpace(ds.Catalog, nil, true)
	if err != nil {
		fail(err)
	}
	maint, err := incremental.New(space, ds.Transactions[:window], incremental.Config{
		Mining: mining.Options{MinSupport: p.minsup},
	})
	if err != nil {
		fail(err)
	}
	refresher, err := incremental.NewRefresher(incremental.RefreshConfig{
		Maintainer: maint,
		Catalog:    ds.Catalog,
		Source:     ds.Transactions,
		Start:      window % len(ds.Transactions),
		Slide:      p.slide,
		Registry:   reg,
	})
	if err != nil {
		fail(err)
	}
	if _, _, err := refresher.SubmitCurrent(fmt.Sprintf("soak initial window of %d", window)); err != nil {
		fail(err)
	}
	return refresher
}

// runSoakSingle executes the single-node virtual soak twice on fresh
// stacks and folds the two runs into one topology report.
func runSoakSingle(ds *profitmining.Dataset, truth *datagen.GroundTruth, p soakParams) *soakTopology {
	run := func() (*simload.Result, int, float64) {
		node := newSoakNode(ds, p)
		defer node.ts.Close()
		cfg := soakSimConfig(node.ts.URL, ds, truth, p)
		cfg.OnDrift = func() {
			if _, _, err := node.refresher.Refresh(); err != nil {
				fail(fmt.Errorf("soakbench: refresh: %w", err))
			}
		}
		res, err := simload.Run(cfg)
		if err != nil {
			fail(fmt.Errorf("soakbench: single run: %w", err))
		}
		return res, node.reg.Active().Version - 1, fetchRecommendP99(node.ts.URL)
	}
	res1, promos1, p99a := run()
	res2, promos2, p99b := run()
	top := foldTopology(res1, res2, res1.FinalStats, res2.FinalStats)
	top.Promotions = min(promos1, promos2)
	top.RecommendP99Ms = max(p99a, p99b)
	return top
}

// runSoakExternal drives the virtual-clock sim against a live server the
// caller owns (scripts/soak_smoke.sh). Drift recovery is the server's
// own business (-window wiring); the sim counts its receipt-reported
// alarms and watches /version for the promotion.
func runSoakExternal(ds *profitmining.Dataset, truth *datagen.GroundTruth, p soakParams) *soakTopology {
	before := fetchModelVersion(p.url)
	cfg := soakSimConfig(p.url, ds, truth, p)
	cfg.OnDrift = func() {} // count receipt alarms; recovery is server-side
	res, err := simload.Run(cfg)
	if err != nil {
		fail(fmt.Errorf("soakbench: external run: %w", err))
	}
	// The server's drift hook refreshes asynchronously; give the
	// promotion a moment to land.
	promotions := 0
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Millisecond) {
		if v := fetchModelVersion(p.url); v > before {
			promotions = v - before
			break
		}
	}
	top := foldTopology(res, res, res.FinalStats, res.FinalStats)
	top.Promotions = promotions
	top.Deterministic = false // one run against external state proves nothing
	top.StatsSHA256 = ""
	top.RecommendP99Ms = fetchRecommendP99(p.url)
	fmt.Printf("soakbench: external %s: %d outcomes, %d drift alarms, %d promotions, %d dropped, p99 %.3fms\n",
		p.url, top.Outcomes, top.DriftAlarms, top.Promotions, top.DroppedOutcomes, top.RecommendP99Ms)
	return top
}

// soakReplica is one fleet member: a durable-WAL serve stack with the
// soak drift tuning and a stable node identity, joined to the
// coordinator. Stable NodeIDs (not URLs) keep the spool fold order —
// and therefore the cluster stats bytes — identical across runs.
type soakReplica struct {
	walDir string
	reg    *registry.Registry
	ts     *httptest.Server
	rep    *cluster.Replica
}

func newSoakReplica(i int, coordinatorURL string, ln net.Listener) *soakReplica {
	walDir, err := os.MkdirTemp("", "soakbench-wal-")
	if err != nil {
		fail(err)
	}
	fb, _, err := feedback.Open(feedback.Config{Dir: walDir, Drift: soakDrift})
	if err != nil {
		fail(err)
	}
	reg, err := registry.New(registry.Options{
		OnPromote: func(snap *registry.Snapshot) { serve.RegisterSnapshot(fb, snap) },
	})
	if err != nil {
		fail(err)
	}
	ts := httptest.NewUnstartedServer(serve.NewRegistry(reg, nil, fb).Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	rep, err := cluster.NewReplica(cluster.ReplicaConfig{
		NodeID:      fmt.Sprintf("soak-replica-%d", i),
		Coordinator: coordinatorURL,
		Collector:   fb,
		WALDir:      walDir,
		Registry:    reg,
	})
	if err != nil {
		fail(err)
	}
	return &soakReplica{walDir: walDir, reg: reg, ts: ts, rep: rep}
}

// pinnedListener binds addr, retrying briefly: run 2 reclaims the exact
// addresses run 1 just released, because the coordinator routes by
// consistent hash over replica URLs — different ports would route
// traffic differently and sink the determinism gate.
func pinnedListener(addr string) net.Listener {
	if addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		return ln
	}
	var lastErr error
	for i := 0; i < 100; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	fail(fmt.Errorf("soakbench: rebind %s: %w", addr, lastErr))
	return nil
}

const soakReplicas = 3

// runSoakCluster executes the fleet virtual soak twice — 3 replicas
// behind a coordinator, model distribution through coordinator pull,
// WAL shipping at deterministic outcome counts — pinning replica
// addresses across the runs so routing is identical.
func runSoakCluster(ds *profitmining.Dataset, truth *datagen.GroundTruth, p soakParams) *soakTopology {
	ctx := context.Background()
	addrs := make([]string, soakReplicas)

	run := func() (*simload.Result, []byte, int, float64, int64) {
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			// /outcome must never be hedged: a duplicated outcome would
			// double-record and break both accounting and determinism.
			// Replicas are in-process; the hedge never has a reason to fire.
			Hedge:          10 * time.Second,
			RequestTimeout: 30 * time.Second,
			Drift:          soakDrift,
		})
		if err != nil {
			fail(err)
		}
		cts := httptest.NewServer(coord.Handler())
		defer cts.Close()

		// Operator pipeline: the refresher submits into this registry,
		// whose promotions hand the sealed image to the coordinator for
		// replica pull.
		opReg, err := registry.New(registry.Options{
			OnPromote: func(snap *registry.Snapshot) {
				coord.SetModel(snap.Rec.Sealed().Arena().Bytes())
			},
		})
		if err != nil {
			fail(err)
		}
		refresher := newSoakRefresher(ds, p, opReg)

		stacks := make([]*soakReplica, soakReplicas)
		urls := make([]string, soakReplicas)
		for i := range stacks {
			stacks[i] = newSoakReplica(i, cts.URL, pinnedListener(addrs[i]))
			urls[i] = stacks[i].ts.URL
			addrs[i] = stacks[i].ts.Listener.Addr().String()
			defer os.RemoveAll(stacks[i].walDir)
			defer stacks[i].ts.Close()
		}
		coord.SetReplicas(urls)
		for i, st := range stacks {
			if _, err := st.rep.SyncModel(ctx); err != nil {
				fail(fmt.Errorf("soakbench: replica %d model sync: %w", i, err))
			}
		}
		coord.CheckHealth(ctx)

		cfg := soakSimConfig(cts.URL, ds, truth, p)
		cfg.OnDrift = func() {
			if _, _, err := refresher.Refresh(); err != nil {
				fail(fmt.Errorf("soakbench: cluster refresh: %w", err))
			}
			for i, st := range stacks {
				if _, err := st.rep.SyncModel(ctx); err != nil {
					fail(fmt.Errorf("soakbench: replica %d refresh sync: %w", i, err))
				}
			}
		}
		cfg.CheckEvery = p.checkEvery
		cfg.OnCheck = func() {
			for i, st := range stacks {
				if _, err := st.rep.ShipNow(ctx); err != nil {
					fail(fmt.Errorf("soakbench: replica %d ship: %w", i, err))
				}
			}
		}
		res, err := simload.Run(cfg)
		if err != nil {
			fail(fmt.Errorf("soakbench: cluster run: %w", err))
		}
		// Final ship so the spool covers every acked outcome, then the
		// cluster stats — the determinism surface — are refetched.
		cfg.OnCheck()
		stats, err := res.Client.FeedbackStats(1000000)
		if err != nil {
			fail(fmt.Errorf("soakbench: cluster stats: %w", err))
		}
		p99 := 0.0
		for _, st := range stacks {
			p99 = max(p99, fetchRecommendP99(st.ts.URL))
		}
		//lint:allow atomiczone -- one registry inspected once after the run; no cross-load invariant
		promotions := stacks[0].reg.Active().Version - 1
		return res, stats, promotions, p99, coord.Spool().Outcomes()
	}

	res1, stats1, promos1, p99a, agg1 := run()
	res2, stats2, promos2, p99b, agg2 := run()
	top := foldTopology(res1, res2, stats1, stats2)
	top.Promotions = min(promos1, promos2)
	top.RecommendP99Ms = max(p99a, p99b)
	top.Aggregated = agg1
	// An acked outcome missing from the spool is exactly the loss the
	// WAL-shipping tier exists to prevent; count it as dropped.
	if agg1 < res1.Outcomes {
		top.DroppedOutcomes += res1.Outcomes - agg1
	}
	if agg2 < res2.Outcomes {
		top.DroppedOutcomes += res2.Outcomes - agg2
	}
	return top
}

// runSoakOpenLoop runs the wall-clock pacer against a fresh single-node
// stack for client-side latency numbers.
func runSoakOpenLoop(ds *profitmining.Dataset, truth *datagen.GroundTruth, p soakParams) *soakOpenLoop {
	node := newSoakNode(ds, p)
	defer node.ts.Close()
	res, err := simload.RunOpenLoop(simload.OpenLoopConfig{
		BaseURL:  node.ts.URL,
		Dataset:  ds,
		Truth:    truth,
		Users:    p.users,
		Seed:     p.seed,
		QPS:      p.qps,
		Duration: time.Duration(p.wallSecs * float64(time.Second)),
	})
	if err != nil {
		fail(fmt.Errorf("soakbench: open loop: %w", err))
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	return &soakOpenLoop{
		TargetQPS:      res.TargetQPS,
		AchievedQPS:    res.AchievedQPS,
		Seconds:        res.Elapsed.Seconds(),
		Requests:       res.Requests,
		Outcomes:       res.Outcomes,
		Conversions:    res.Conversions,
		LateDispatches: res.LateDispatches,
		Dropped:        res.Dropped,
		RecommendP50Ms: ms(res.Client.RecommendHist.Quantile(0.50)),
		RecommendP99Ms: ms(res.Client.RecommendHist.Quantile(0.99)),
		OutcomeP99Ms:   ms(res.Client.OutcomeHist.Quantile(0.99)),
	}
}

// foldTopology merges two identical-schedule runs into one report row,
// comparing their final stats byte for byte.
func foldTopology(res1, res2 *simload.Result, stats1, stats2 []byte) *soakTopology {
	sum := sha256.Sum256(stats1)
	return &soakTopology{
		Sessions:        res1.Sessions,
		Steps:           res1.Steps,
		Recommends:      res1.Recommends,
		NoRec:           res1.NoRec,
		Outcomes:        res1.Outcomes,
		Conversions:     res1.Conversions,
		DriftAlarms:     min(res1.DriftAlarms, res2.DriftAlarms),
		DroppedOutcomes: res1.Dropped + res2.Dropped,
		StatsSHA256:     hex.EncodeToString(sum[:]),
		Deterministic: bytes.Equal(stats1, stats2) &&
			res1.Sessions == res2.Sessions &&
			res1.Steps == res2.Steps &&
			res1.Outcomes == res2.Outcomes &&
			res1.Conversions == res2.Conversions,
	}
}

// fetchRecommendP99 reads the server-side /recommend p99 from /metrics
// — the satellite percentile export this gate exists to consume.
func fetchRecommendP99(base string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fail(fmt.Errorf("soakbench: GET /metrics: %w", err))
	}
	defer resp.Body.Close()
	var m struct {
		LatencyByEndpoint map[string]struct {
			P99Ms float64 `json:"p99Ms"`
		} `json:"latencyByEndpoint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		fail(fmt.Errorf("soakbench: decode /metrics: %w", err))
	}
	return m.LatencyByEndpoint["/recommend"].P99Ms
}

// fetchModelVersion reads the active model version from /version.
func fetchModelVersion(base string) int {
	resp, err := http.Get(base + "/version")
	if err != nil {
		fail(fmt.Errorf("soakbench: GET /version: %w", err))
	}
	defer resp.Body.Close()
	var v struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		fail(fmt.Errorf("soakbench: decode /version: %w", err))
	}
	return v.Version
}
