package core

import (
	"testing"

	"profitmining/internal/datagen"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/quest"
	"profitmining/internal/rules"
)

// BenchmarkDominationPass times the domination pass of Build and
// TreeDelta.Update (rules.NonDominated: the cut candidates and the
// per-item top-K alternates) on its own. The default scale is perfbench's
// serve_drift model: dataset I from Quest seed 1 with 4000 transactions
// over 120 items, mined at minimum support 0.01 on the first 2048
// transactions, about 432K rules. -short runs a reduced world (1500
// transactions over 60 items, window 768, minimum support 0.03, about
// 100K rules).
//
//	go test ./internal/core -run NONE -bench BenchmarkDominationPass -benchtime 1x
func BenchmarkDominationPass(b *testing.B) {
	txns, items, window, minsup := 4000, 120, 2048, 0.01
	if testing.Short() {
		txns, items, window, minsup = 1500, 60, 768, 0.03
	}
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{
		NumTransactions: txns,
		NumItems:        items,
		Seed:            1,
	}, 2))
	if err != nil {
		b.Fatal(err)
	}
	space, err := hierarchy.NewBuilder(ds.Catalog).Compile(hierarchy.Options{MOA: true})
	if err != nil {
		b.Fatal(err)
	}
	mined, err := mining.Mine(space, ds.Transactions[:window], mining.Options{MinSupport: minsup})
	if err != nil {
		b.Fatal(err)
	}
	all := mined.AllRules()

	b.ReportAllocs()
	b.ResetTimer()
	var kept, alt []*rules.Rule
	for i := 0; i < b.N; i++ {
		kept, alt = rules.NonDominated(space, all, all)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(all)), "rules")
	b.ReportMetric(float64(len(kept)), "kept")
	b.ReportMetric(float64(len(alt)), "alternates")
}
