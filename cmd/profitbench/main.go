// Command profitbench reproduces the paper's full evaluation (Figures 3
// and 4 of Wang–Zhou–Han, EDBT 2002) at a configurable scale and prints
// one table per figure panel.
//
// Full paper scale (|T|=100K, |I|=1000 — takes a while):
//
//	profitbench -dataset both -txns 100000 -items 1000
//
// A laptop-sized run preserving the shapes:
//
//	profitbench -dataset I -txns 10000 -items 200
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"profitmining"
	"profitmining/internal/eval"
	"profitmining/internal/floats"
)

func main() {
	var (
		dataset  = flag.String("dataset", "I", `dataset: "I", "II" or "both"`)
		txns     = flag.Int("txns", 10000, "number of transactions (paper: 100000)")
		items    = flag.Int("items", 200, "number of non-target items (paper: 1000)")
		minsups  = flag.String("minsups", "0.0005,0.001,0.002,0.005,0.01", "comma-separated minimum supports")
		rangeSup = flag.Float64("rangesup", 0.0008, "minimum support for the profit-range panel (paper: 0.08%)")
		folds    = flag.Int("folds", 5, "cross-validation folds")
		maxLen   = flag.Int("maxlen", 3, "maximum rule body length")
		seed     = flag.Int64("seed", 1, "random seed")
		knnK     = flag.Int("k", 5, "kNN neighbor count")
		csvDir   = flag.String("csv", "", "also write raw sweep points as CSV into this directory")
		par      = flag.Int("parallel", 0, "per-build worker count (0 = one per CPU, 1 = serial; identical output either way)")

		parCheck   = flag.Bool("parcheck", false, "instead of the figure sweep, build serial vs parallel, verify byte-identical models and report timings")
		parWorkers = flag.Int("parworkers", 4, "parallel-build worker count for -parcheck")
		parOut     = flag.String("parout", "BENCH_parallel.json", "where -parcheck writes its JSON report")

		serveBench = flag.Bool("servebench", false, "instead of the figure sweep, benchmark the recommend hot path and serving endpoints, enforce the 0-alloc budget and write a JSON report")
		serveReqs  = flag.Int("servereqs", 200, "batch requests timed for the -servebench latency percentiles")
		serveOut   = flag.String("serveout", "BENCH_serve.json", "where -servebench writes its JSON report")

		incBench      = flag.Bool("incbench", false, "instead of the figure sweep, benchmark incremental window maintenance against full rebuilds, enforce byte-identity and write a JSON report")
		incWindow     = flag.Int("incwindow", 16384, "window size for -incbench (shard-aligned windows engage the pass-2 cache)")
		incSlide      = flag.Int("incslide", 1024, "transactions per slide for -incbench")
		incSlides     = flag.Int("incslides", 4, "number of slides timed by -incbench")
		incItems      = flag.Int("incitems", 1000, "number of non-target items for -incbench")
		incMinsup     = flag.Float64("incminsup", 0.004, "minimum support for -incbench")
		incMinSpeedup = flag.Float64("incminspeedup", 5, "minimum average speedup -incbench enforces (0 = report only)")
		incOut        = flag.String("incout", "BENCH_incremental.json", "where -incbench writes its JSON report")

		feedBench   = flag.Bool("feedbench", false, "instead of the figure sweep, benchmark the feedback outcome log (append + replay), verify replay reproduces the statistics and write a JSON report")
		feedRecords = flag.Int("feedrecords", 50000, "outcomes appended by -feedbench")
		feedSync    = flag.Int("feedsync", 0, "fsync policy for -feedbench (0 = OS-buffered, 1 = fsync per record)")
		feedSeg     = flag.Int64("feedseg", 4<<20, "segment size in bytes for -feedbench (small enough to exercise rotation)")
		feedOut     = flag.String("feedout", "BENCH_feedback.json", "where -feedbench writes its JSON report")

		loadBench = flag.Bool("loadbench", false, "instead of the figure sweep, benchmark cold model load (v2 decode vs sealed zero-copy open) across three model sizes, enforce the O(1)-open gate and write a JSON report")
		loadIters = flag.Int("loaditers", 5, "load repetitions timed per format and size by -loadbench")
		loadRatio = flag.Float64("loadratio", 2, "maximum sealed-open slowdown from smallest to largest model -loadbench enforces")
		loadOut   = flag.String("loadout", "BENCH_load.json", "where -loadbench writes its JSON report")

		clusterBench = flag.Bool("clusterbench", false, "instead of the figure sweep, stand up an in-process replica fleet + coordinator, enforce the distributed tier's acceptance gates and write a JSON report")
		clusterReqs  = flag.Int("clusterreqs", 200, "batch requests timed per tier by -clusterbench")
		clusterRatio = flag.Float64("clusterratio", 2, "maximum coordinator/single-node batch p99 ratio -clusterbench enforces")
		clusterOut   = flag.String("clusterout", "BENCH_cluster.json", "where -clusterbench writes its JSON report")

		soakBench    = flag.Bool("soakbench", false, "instead of the figure sweep, run the closed-loop traffic soak (virtual-clock, single node + coordinator fleet, determinism and drift-cycle gates) and write a JSON report")
		soakUsers    = flag.Int("soakusers", 1000000, "simulated user population for -soakbench")
		soakVirt     = flag.Float64("soakvirt", 45, "virtual-clock seconds simulated per -soakbench run")
		soakRate     = flag.Float64("soakrate", 20, "base session arrivals per virtual second for -soakbench")
		soakMinsup   = flag.Float64("soakminsup", 0.01, "minimum support for the -soakbench windowed model")
		soakWindow   = flag.Int("soakwindow", 2048, "initial window size for the -soakbench windowed model")
		soakSlide    = flag.Int("soakslide", 256, "transactions each drift refresh slides the -soakbench window by")
		soakQPS      = flag.Float64("soakqps", 200, "target request rate for the -soakbench wall-clock open-loop phase")
		soakWall     = flag.Float64("soakwall", 5, "wall-clock seconds of the -soakbench open-loop phase")
		soakP99Ms    = flag.Float64("soakp99ms", 5, "server-side /recommend p99 budget in ms -soakbench enforces in both topologies")
		soakCheckEvy = flag.Int("soakcheckevery", 50, "acked outcomes between WAL shipping points in the -soakbench cluster phase")
		soakURL      = flag.String("soakurl", "", "soak an external live server at this base URL instead of the in-process topologies (scripts/soak_smoke.sh mode)")
		soakOut      = flag.String("soakout", "BENCH_soak.json", "where -soakbench writes its JSON report")
	)
	flag.Parse()

	sups, err := parseFloats(*minsups)
	if err != nil {
		fail(err)
	}

	var names []string
	switch *dataset {
	case "I", "i", "1":
		names = []string{"I"}
	case "II", "ii", "2":
		names = []string{"II"}
	case "both":
		names = []string{"I", "II"}
	default:
		fail(fmt.Errorf("unknown dataset %q", *dataset))
	}

	if *parCheck {
		runParCheck(names[0], *txns, *items, sups[0], *maxLen, *seed, *parWorkers, *parOut)
		return
	}
	if *serveBench {
		runServeBench(names[0], *txns, *items, sups[0], *maxLen, *seed, *serveReqs, *serveOut)
		return
	}
	if *incBench {
		runIncBench(names[0], *txns, *incItems, *incMinsup, *maxLen, *seed, *incWindow, *incSlide, *incSlides, *incMinSpeedup, *incOut)
		return
	}
	if *feedBench {
		runFeedBench(*feedRecords, *feedSync, *feedSeg, *seed, *feedOut)
		return
	}
	if *loadBench {
		runLoadBench(*seed, *loadIters, *loadRatio, *loadOut)
		return
	}
	if *clusterBench {
		runClusterBench(names[0], *txns, *items, sups[0], *maxLen, *seed, *clusterReqs, *clusterRatio, *clusterOut)
		return
	}
	if *soakBench {
		runSoakBench(soakParams{
			txns: *txns, items: *items,
			minsup: *soakMinsup, window: *soakWindow, slide: *soakSlide,
			users: *soakUsers, seed: *seed,
			virtSecs: *soakVirt, rate: *soakRate,
			qps: *soakQPS, wallSecs: *soakWall,
			maxP99Ms: *soakP99Ms, checkEvery: *soakCheckEvy,
			out: *soakOut, url: *soakURL,
		})
		return
	}

	for _, name := range names {
		runDataset(name, *txns, *items, sups, *rangeSup, *folds, *maxLen, *seed, *knnK, *par, *csvDir)
	}
}

// parReport is the schema of the -parcheck JSON artifact consumed by CI.
type parReport struct {
	Dataset              string  `json:"dataset"`
	Txns                 int     `json:"txns"`
	Items                int     `json:"items"`
	MinSupport           float64 `json:"minSupport"`
	Workers              int     `json:"workers"`
	GOMAXPROCS           int     `json:"gomaxprocs"`
	SerialBuildSeconds   float64 `json:"serialBuildSeconds"`
	ParallelBuildSeconds float64 `json:"parallelBuildSeconds"`
	Speedup              float64 `json:"speedup"`
	Identical            bool    `json:"identical"`
}

// runParCheck builds the same model twice — strictly serial and with the
// requested worker count — and verifies the serialized models are
// byte-identical. Divergence is a hard failure (exit 1); the timings are
// informational, since the achievable speedup depends on the host's CPU
// count.
func runParCheck(name string, txns, items int, minsup float64, maxLen int, seed int64, workers int, out string) {
	ds := genDataset(name, txns, items, seed)
	build := func(parallelism int) (*profitmining.Recommender, float64, []byte) {
		start := time.Now()
		rec, err := profitmining.Build(ds, profitmining.Options{
			MinSupport:  minsup,
			MaxBodyLen:  maxLen,
			Parallelism: parallelism,
		})
		if err != nil {
			fail(err)
		}
		secs := time.Since(start).Seconds()
		var buf bytes.Buffer
		if err := profitmining.WriteModel(&buf, ds.Catalog, nil, rec); err != nil {
			fail(err)
		}
		return rec, secs, buf.Bytes()
	}

	recSerial, serialSecs, serialBytes := build(1)
	_, parSecs, parBytes := build(workers)

	rep := parReport{
		Dataset:              name,
		Txns:                 txns,
		Items:                items,
		MinSupport:           minsup,
		Workers:              workers,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		SerialBuildSeconds:   serialSecs,
		ParallelBuildSeconds: parSecs,
		Speedup:              safeRatio(serialSecs, parSecs),
		Identical:            bytes.Equal(serialBytes, parBytes),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}

	fmt.Printf("parcheck: dataset %s |T|=%d |I|=%d minsup %g, %d rules\n",
		name, txns, items, minsup, recSerial.Stats().RulesFinal)
	fmt.Printf("parcheck: serial %.2fs, %d workers %.2fs (%.2fx on %d CPUs); report: %s\n",
		serialSecs, workers, parSecs, rep.Speedup, rep.GOMAXPROCS, out)
	if !rep.Identical {
		fail(fmt.Errorf("parallel build (%d workers) diverged from the serial model", workers))
	}
	fmt.Println("parcheck: parallel model byte-identical to serial")
}

// genDataset generates synthetic dataset I or II at the given scale.
func genDataset(name string, txns, items int, seed int64) *profitmining.Dataset {
	q := profitmining.QuestConfig{NumTransactions: txns, NumItems: items, Seed: seed}
	var ds *profitmining.Dataset
	var err error
	if name == "I" {
		ds, err = profitmining.GenerateDatasetI(q, seed+1)
	} else {
		ds, err = profitmining.GenerateDatasetII(q, seed+1)
	}
	if err != nil {
		fail(err)
	}
	return ds
}

func runDataset(name string, txns, items int, sups []float64, rangeSup float64, folds, maxLen int, seed int64, knnK, par int, csvDir string) {
	fig := "3"
	if name == "II" {
		fig = "4"
	}
	fmt.Printf("==============================================================\n")
	fmt.Printf("Dataset %s  (|T|=%d, |I|=%d, %d-fold CV; paper Figure %s)\n", name, txns, items, folds, fig)
	fmt.Printf("==============================================================\n\n")

	ds := genDataset(name, txns, items, seed)
	spaces := profitmining.FlatSpaces(ds.Catalog)

	// Figure (e): profit distribution of target sales — cheap, print
	// first while the sweep runs.
	fmt.Printf("-- Figure %s(e): profit distribution of target sales --\n", fig)
	fmt.Println(eval.TargetProfitHistogram(ds, 10).String())

	allSups := append([]float64(nil), sups...)
	if !contains(allSups, rangeSup) {
		allSups = append(allSups, rangeSup)
	}

	start := time.Now()
	points, err := profitmining.RunSweep(ds, spaces, profitmining.SweepConfig{
		Variants:    profitmining.PaperVariants,
		MinSupports: allSups,
		Behaviors: []profitmining.Behavior{
			{},
			eval.NearBehavior,
			profitmining.PaperBehavior,
		},
		Folds:  folds,
		Seed:   seed,
		Config: eval.VariantConfig{MaxBodyLen: maxLen, K: knnK, Parallelism: par},
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("(sweep: %d points in %.1fs)\n\n", len(points), time.Since(start).Seconds())

	if csvDir != "" {
		path := filepath.Join(csvDir, "dataset"+name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := eval.WriteSweepCSV(f, points); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("(raw points written to %s)\n\n", path)
	}

	onSweep := func(p profitmining.SweepPoint) bool { return contains(sups, p.MinSupport) }
	plain := eval.FilterPoints(points, func(p profitmining.SweepPoint) bool {
		return !p.Behavior.Enabled() && onSweep(p)
	})

	fmt.Printf("-- Figure %s(a): gain vs minimum support --\n", fig)
	fmt.Println(eval.FormatGainTable(plain))
	fmt.Printf("   per-fold variability (PROF+MOA):\n")
	fmt.Print(eval.FormatGainStdTable(eval.FilterPoints(plain, func(p profitmining.SweepPoint) bool {
		return p.Variant == profitmining.ProfMOA
	})))
	fmt.Println()

	fmt.Printf("-- Figure %s(b): gain with purchase-behavior settings (MOA recommenders) --\n", fig)
	behaved := eval.FilterPoints(points, func(p profitmining.SweepPoint) bool {
		return p.Behavior.Enabled() && p.Variant.UsesMOA() && onSweep(p)
	})
	fmt.Println(eval.FormatGainTable(behaved))

	fmt.Printf("-- Figure %s(c): hit rate vs minimum support --\n", fig)
	fmt.Println(eval.FormatHitRateTable(plain))

	fmt.Printf("-- Figure %s(d): hit rate by profit range (minsup %.3g%%) --\n", fig, rangeSup*100)
	ranged := eval.FilterPoints(points, func(p profitmining.SweepPoint) bool {
		return !p.Behavior.Enabled() && floats.Eq(p.MinSupport, rangeSup)
	})
	fmt.Println(eval.FormatRangeHitRates(ranged))

	fmt.Printf("-- Figure %s(f): number of rules vs minimum support (after pruning) --\n", fig)
	fmt.Println(eval.FormatRuleCountTable(eval.FilterPoints(plain, func(p profitmining.SweepPoint) bool {
		return p.Variant.RuleBased()
	})))
	fmt.Printf("   pre-pruning rule counts (generated, incl. default):\n")
	pre := eval.FilterPoints(plain, func(p profitmining.SweepPoint) bool { return p.Variant == profitmining.ProfMOA })
	for _, p := range pre {
		fmt.Printf("   PROF+MOA minsup %.3g%%: %.0f generated → %.0f final (×%.0f reduction)\n",
			p.MinSupport*100, p.Info.RulesGenerated, p.Info.RulesFinal,
			safeRatio(p.Info.RulesGenerated, p.Info.RulesFinal))
	}
	fmt.Println()

	// Section 5.3 text: the kNN post-processing variant.
	fmt.Printf("-- Section 5.3: kNN profit-rerank post-processing --\n")
	rerank, err := profitmining.RunSweep(ds, spaces, profitmining.SweepConfig{
		Variants:    []profitmining.Variant{profitmining.KNN, profitmining.KNNRerank},
		MinSupports: sups[:1],
		Folds:       folds,
		Seed:        seed,
		Config:      eval.VariantConfig{K: knnK},
	})
	if err != nil {
		fail(err)
	}
	var g, gr float64
	for _, p := range rerank {
		if p.Variant == profitmining.KNN {
			g = p.Metrics.Gain()
		} else {
			gr = p.Metrics.Gain()
		}
	}
	fmt.Printf("   kNN gain %.4f → rerank %.4f (Δ %+.1f%%)\n\n", g, gr, 100*(gr-g))
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad minsup %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no minimum supports given")
	}
	return out, nil
}

// contains reports whether v is one of the sweep-grid values. The
// tolerant comparison keeps grid membership robust when support levels
// are recomputed (e.g. percent -> fraction round trips).
func contains(xs []float64, v float64) bool {
	for _, x := range xs {
		if floats.Eq(x, v) {
			return true
		}
	}
	return false
}

func safeRatio(a, b float64) float64 {
	if b == 0 { //lint:allow floatcmp -- exact guard for the division below; any nonzero denominator is valid
		return 0
	}
	return a / b
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "profitbench: %v\n", err)
	os.Exit(1)
}
