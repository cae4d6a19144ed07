package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"profitmining"
	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/incremental"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/modelio"
	"profitmining/internal/quest"
	"profitmining/internal/registry"
)

// dataSeed fixes each workload's dataset. The seed of a run varies the
// traffic — who shops which basket, who asks for five answers, who buys
// — but not the data: Quest datasets of different seeds differ by a
// third in model size and with it in every build, seal and refresh
// time, which would make those figures unrepeatable across runs.
const dataSeed = 1

// warmupRequests is how many requests each set-up sends, untimed, after
// its first one so that connections, pools and caches are warm before
// the first timed request.
const warmupRequests = 200

// env is one set-up: the generated data, the offline model in heap and
// sealed form, and a serving stack that has promoted the sealed model
// and holds a windowed maintainer for refreshes.
type env struct {
	ds      *profitmining.Dataset
	space   *hierarchy.Space
	heap    *core.Recommender
	sealed  []byte
	sealRec *core.Recommender
	sealCat *model.Catalog
	gain    float64
	maint   *incremental.Maintainer
	refr    *incremental.Refresher
	st      *stack
	tf      *traffic

	heapHash string // sha256 of the heap model's v2 bytes

	total, gen, build time.Duration
	firstRequest      time.Duration
}

// setup runs one full set-up of workload w: generate dataset I with its
// ground truth, build the offline model on the training window, seal
// and load it, score it on the transactions after the window, start
// the serving stack, promote the sealed model and warm the server.
func setup(w workload, seed int64, tr *tracer, workers int) (e *env, err error) {
	start := time.Now()
	root := tr.begin("bench", "setup", 0, 0)
	defer tr.end(root)
	e = &env{}

	t := time.Now()
	var truth *datagen.GroundTruth
	tr.do("datagen", "GenerateWithTruth", root, func(int) {
		e.ds, truth, err = datagen.GenerateWithTruth(datagen.DatasetIConfig(quest.Config{
			NumTransactions: w.txns,
			NumItems:        w.items,
			Seed:            dataSeed,
		}, dataSeed+1))
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	e.gen = time.Since(t)
	window, holdout := e.ds.Transactions[:w.window], e.ds.Transactions[w.window:]

	t = time.Now()
	if tr == nil {
		e.heap, err = profitmining.Build(&profitmining.Dataset{Catalog: e.ds.Catalog, Transactions: window},
			profitmining.Options{MinSupport: w.minsup})
	} else {
		e.heap, err = tracedBuild(tr, root, e.ds.Catalog, window, w.minsup)
	}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	e.build = time.Since(t)

	tr.do("modelio", "Seal", root, func(int) { e.sealed, err = modelio.Seal(e.ds.Catalog, e.heap) })
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}

	if tr == nil {
		e.sealCat, e.sealRec, err = modelio.LoadBytes(e.sealed)
	} else {
		e.sealCat, e.sealRec, err = tracedLoad(tr, root, e.sealed)
	}
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}

	tr.do("eval", "Evaluate", root, func(int) {
		e.gain = profitmining.Evaluate(e.ds.Catalog, holdout, profitmining.RecommenderFunc(e.sealRec),
			profitmining.EvalOptions{MOAHits: true}).Gain()
	})

	tr.do("hierarchy", "CompileSpace", root, func(int) {
		e.space, err = profitmining.CompileSpace(e.ds.Catalog, nil, true)
	})
	if err != nil {
		return nil, fmt.Errorf("compile space: %w", err)
	}
	tr.do("incremental", "New", root, func(int) {
		e.maint, err = incremental.New(e.space, window, incremental.Config{Mining: mining.Options{MinSupport: w.minsup}})
	})
	if err != nil {
		return nil, fmt.Errorf("maintainer: %w", err)
	}
	if e.heapHash, err = v2Hash(e.ds.Catalog, e.heap); err != nil {
		return nil, err
	}

	if e.tf, err = newTraffic(e.ds, truth); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if e.st, err = newStack(tr, filepath.Join(".bench_build", "tmp"), workers); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.st.close()
		}
	}()
	e.refr, err = incremental.NewRefresher(incremental.RefreshConfig{
		Maintainer: e.maint,
		Catalog:    e.ds.Catalog,
		Source:     e.ds.Transactions,
		Start:      w.window % len(e.ds.Transactions),
		Slide:      w.slide,
		Registry:   e.st.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("refresher: %w", err)
	}
	if _, err = e.st.submit(e.sealCat, e.sealRec, "sealed offline model", modelio.ContentHash(e.sealed), root); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, r := range e.tf.schedule(rng, warmupRequests+1) {
		t = time.Now()
		if _, err = e.st.recommend(e.tf.payload(r), 0); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if i == 0 {
			e.firstRequest = time.Since(t)
		}
	}
	e.total = time.Since(start)
	return e, nil
}

// tracedBuild is profitmining.Build one layer call at a time, so each
// stage gets its own span: validate, compile the space, mine, then
// build and prune the covering tree. With only a support threshold set,
// these are the stage options Build itself derives.
func tracedBuild(tr *tracer, parent int, cat *model.Catalog, txns []model.Transaction, minsup float64) (rec *core.Recommender, err error) {
	id := tr.begin("profitmining", "Build", parent, 0)
	defer tr.end(id)
	ds := &profitmining.Dataset{Catalog: cat, Transactions: txns}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	var space *hierarchy.Space
	tr.do("hierarchy", "CompileSpace", id, func(int) { space, err = profitmining.CompileSpace(cat, nil, true) })
	if err != nil {
		return nil, err
	}
	var mined *mining.Result
	tr.do("mining", "Mine", id, func(int) { mined, err = mining.Mine(space, txns, mining.Options{MinSupport: minsup}) })
	if err != nil {
		return nil, err
	}
	tr.do("core", "Build", id, func(int) { rec, err = core.Build(space, txns, mined, core.Config{}) })
	return rec, err
}

// tracedLoad is modelio.LoadBytes one layer call at a time: open the
// arena, verify it, materialize the catalog, wrap the recommender.
func tracedLoad(tr *tracer, parent int, data []byte) (cat *model.Catalog, rec *core.Recommender, err error) {
	id := tr.begin("modelio", "LoadBytes", parent, 0)
	defer tr.end(id)
	var m *arena.Model
	tr.do("arena", "OpenBytes", id, func(int) { m, err = arena.OpenBytes(data) })
	if err != nil {
		return nil, nil, err
	}
	tr.do("arena", "Verify", id, func(int) { err = m.Verify() })
	if err == nil {
		tr.do("arena", "Catalog", id, func(int) { cat, err = m.Catalog() })
	}
	if err == nil {
		tr.do("core", "FromSealed", id, func(int) { rec, err = core.FromSealed(m) })
	}
	if err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	return cat, rec, nil
}

// v2Hash is the content hash a refresh would submit the model under:
// sha256 of its v2 serialization without a hierarchy spec.
func v2Hash(cat *model.Catalog, rec *core.Recommender) (string, error) {
	var buf bytes.Buffer
	if err := modelio.Save(&buf, cat, nil, rec); err != nil {
		return "", fmt.Errorf("save: %w", err)
	}
	return registry.HashBytes(buf.Bytes()), nil
}

// gainBits renders a gain exactly, for repeat checks.
func gainBits(g float64) string { return strconv.FormatFloat(g, 'g', -1, 64) }
