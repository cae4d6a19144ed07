package modelio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"profitmining/internal/core"
	"profitmining/internal/datagen"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/quest"
	"profitmining/internal/rules"
)

// sealedWorld builds the grocery model (hierarchy, MOA, multi-promo
// items), seals it, and reopens the image, returning the heap
// recommender, the sealed recommender, and probe baskets drawn from the
// training transactions.
func sealedWorld(t testing.TB) (*model.Catalog, *core.Recommender, *core.Recommender, []model.Basket) {
	t.Helper()
	g := datagen.NewGrocery(800, 11)
	space, err := g.Builder.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, g.Dataset.Transactions, mining.Options{MinSupport: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := core.Build(space, g.Dataset.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Seal(g.Dataset.Catalog, heap)
	if err != nil {
		t.Fatal(err)
	}
	_, sealed, err := LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Sealed() == nil {
		t.Fatal("LoadBytes of a sealed image returned a heap recommender")
	}
	baskets := make([]model.Basket, 0, 256)
	for i := 0; i < len(g.Dataset.Transactions) && len(baskets) < 256; i += 3 {
		if bk := g.Dataset.Transactions[i].NonTarget; len(bk) > 0 {
			baskets = append(baskets, bk)
		}
	}
	return g.Dataset.Catalog, heap, sealed, baskets
}

// TestSealedCoreEquivalence pins the sealed recommender to the heap one
// at the core API level: same pick, same top-K ranking, same rule IDs,
// same explanation lineage, same wire blob, for every probe basket —
// and the same rule string and explanation for every rule-table row,
// both of which the sealed table derives from the row's blob.
func TestSealedCoreEquivalence(t *testing.T) {
	cat, heap, sealed, baskets := sealedWorld(t)
	if got, want := sealed.Stats(), heap.Stats(); got != want {
		t.Fatalf("sealed stats %+v != heap stats %+v", got, want)
	}
	// Rows in Seal's order: the final rules, then the alternates not
	// already present.
	space := heap.Space()
	table := append([]*rules.Rule(nil), heap.Rules()...)
	seen := make(map[*rules.Rule]bool, len(table))
	for _, r := range table {
		seen[r] = true
	}
	for _, r := range heap.Alternates() {
		if !seen[r] {
			seen[r] = true
			table = append(table, r)
		}
	}
	rt := sealed.Sealed().Rules()
	if rt.N() != len(table) {
		t.Fatalf("sealed rule table holds %d rows, heap model %d rules", rt.N(), len(table))
	}
	for i, r := range table {
		if got, want := rt.String(int32(i)), r.String(space); got != want {
			t.Fatalf("row %d: rule string %q, heap renders %q", i, got, want)
		}
		rec := core.Recommendation{Item: space.ItemOf(r.Head), Promo: space.PromoOf(r.Head), Rule: r}
		if got, want := rt.ExplainJoined(int32(i)), strings.Join(heap.Explain(rec), "\n"); got != want {
			t.Fatalf("row %d: explanation\n%s\nheap explains\n%s", i, got, want)
		}
	}
	dst := make([]core.Recommendation, 0, 8)
	for bi, bk := range baskets {
		h, s := heap.Recommend(bk), sealed.Recommend(bk)
		if h.Item != s.Item || h.Promo != s.Promo || h.ID != s.ID {
			t.Fatalf("basket %d: heap picked item %d promo %d [%s], sealed item %d promo %d [%s]",
				bi, h.Item, h.Promo, h.ID, s.Item, s.Promo, s.ID)
		}
		he := strings.Join(heap.Explain(h), "\n")
		se := strings.Join(sealed.Explain(s), "\n")
		if he != se {
			t.Fatalf("basket %d: explanations diverge\nheap:\n%s\nsealed:\n%s", bi, he, se)
		}
		// The serving layer marshals heap recommendations per request
		// and serves sealed ones straight from the blob pool; the two
		// byte streams must agree.
		if s.Idx < 0 {
			t.Fatalf("basket %d: sealed recommendation carries no rule-table index", bi)
		}
		hw := []byte(core.MarshalWire(cat, heap, h))
		sw := sealed.Sealed().Rules().Blob(s.Idx)
		if !bytes.Equal(hw, sw) {
			t.Fatalf("basket %d: wire blobs diverge\nheap:   %s\nsealed: %s", bi, hw, sw)
		}
		hk := heap.RecommendTopK(bk, 5)
		sk := sealed.RecommendTopKInto(dst[:0], bk, 5)
		if len(hk) != len(sk) {
			t.Fatalf("basket %d: top-5 lengths differ (%d vs %d)", bi, len(hk), len(sk))
		}
		for j := range hk {
			if hk[j].Item != sk[j].Item || hk[j].Promo != sk[j].Promo || hk[j].ID != sk[j].ID {
				t.Fatalf("basket %d rank %d: heap item %d promo %d [%s], sealed item %d promo %d [%s]",
					bi, j, hk[j].Item, hk[j].Promo, hk[j].ID, sk[j].Item, sk[j].Promo, sk[j].ID)
			}
		}
	}
}

// TestSealedRecommendZeroAllocs holds the sealed hot path to the same
// bar as the heap one: steady-state Recommend and RecommendTopKInto do
// not allocate. Everything they touch is either a mapped view or
// pooled scratch.
func TestSealedRecommendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	_, _, sealed, baskets := sealedWorld(t)
	dst := make([]core.Recommendation, 0, 8)
	for _, bk := range baskets { // warm scratch pools
		sealed.Recommend(bk)
		dst = sealed.RecommendTopKInto(dst[:0], bk, 5)
	}
	for _, bk := range baskets {
		bk := bk
		if n := testing.AllocsPerRun(500, func() {
			sealed.Recommend(bk)
		}); n != 0 {
			t.Fatalf("sealed Recommend allocates %.1f/op", n)
		}
		if n := testing.AllocsPerRun(500, func() {
			dst = sealed.RecommendTopKInto(dst[:0], bk, 5)
		}); n != 0 {
			t.Fatalf("sealed RecommendTopKInto allocates %.1f/op", n)
		}
	}
}

// TestResealStability pins the sealed image as a stable content
// identity: sealing a model, round-tripping it through the editable v2
// format, and sealing again must reproduce the image byte for byte —
// so the registry and cluster see one content hash for one logical
// model no matter which host sealed it.
func TestResealStability(t *testing.T) {
	ds, err := datagen.Generate(datagen.DatasetIConfig(quest.Config{
		NumTransactions: 1500,
		NumItems:        50,
		Seed:            3,
	}, 4))
	if err != nil {
		t.Fatal(err)
	}
	cat := ds.Catalog
	spec := dataio.SyntheticHierarchySpec(cat, 5)
	hb, err := spec.Builder(cat)
	if err != nil {
		t.Fatal(err)
	}
	space, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(space, ds.Transactions, mining.Options{MinSupport: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	heap, err := core.Build(space, ds.Transactions, mined, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Seal(cat, heap)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := Save(&v2, cat, spec, heap); err != nil {
		t.Fatal(err)
	}
	cat2, restored, err := Load(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Seal(cat2, restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		t.Fatalf("reseal after v2 round-trip diverges at byte %d of %d (second is %d bytes)",
			i, len(first), len(second))
	}
	if ContentHash(first) != ContentHash(second) {
		t.Fatal("reseal changed the content hash")
	}
}

// TestSaveRejectsSealed pins that the v2 encoder refuses a sealed
// recommender with the same error Seal gives for one, instead of
// dereferencing the missing generalization space, and that SaveFile
// then leaves no file behind.
func TestSaveRejectsSealed(t *testing.T) {
	cat, _, sealed, _ := sealedWorld(t)
	var buf bytes.Buffer
	if err := Save(&buf, cat, nil, sealed); !errors.Is(err, errSealed) {
		t.Fatalf("Save(sealed) = %v, want %v", err, errSealed)
	}
	path := filepath.Join(t.TempDir(), "m.pmm")
	if err := SaveFile(path, cat, nil, sealed); !errors.Is(err, errSealed) {
		t.Fatalf("SaveFile(sealed) = %v, want %v", err, errSealed)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("SaveFile(sealed) left %s behind (stat: %v)", path, err)
	}
	if _, err := Seal(cat, sealed); !errors.Is(err, errSealed) {
		t.Fatalf("Seal(sealed) = %v, want %v", err, errSealed)
	}
}
