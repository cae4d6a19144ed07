package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// This file is modelio format v3: the sealed arena image (see
// internal/arena for the byte layout). Unlike v1/v2, a sealed file is a
// serving artifact, not an interchange format — it stores interned IDs,
// flattened tries, and pre-marshaled response blobs, and it loads in
// O(1) of the rule count by mmap. Save still writes v2 (the editable,
// structural form); Seal produces v3 from a loaded recommender.

// IsSealed reports whether data begins with a sealed-model header.
func IsSealed(data []byte) bool { return arena.SniffMagic(data) }

// ContentHash returns the model image's content identity in hex: the
// embedded header checksum for sealed images (no hashing pass), the
// whole-file sha256 otherwise. Registry staging and cluster
// distribution both key on this value, so a sealed file keeps one
// identity from sealing CLI to replica fleet.
func ContentHash(data []byte) string {
	if h, err := arena.HeaderHash(data); err == nil {
		return h
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// LoadBytes restores a model of any format held in memory: sealed
// images are verified and opened zero-copy; v1/v2 JSON decodes through
// Load. The cluster sync path receives images this way.
func LoadBytes(data []byte) (*model.Catalog, *core.Recommender, error) {
	if IsSealed(data) {
		m, err := arena.OpenBytes(data)
		if err != nil {
			return nil, nil, err
		}
		return fromVerified(m)
	}
	return Load(bytes.NewReader(data))
}

// OpenSealed opens a sealed model file — mmap plus O(1) fixup — then
// runs the full checksum verification once. opts.NoMmap forces the
// pure-Go fallback.
func OpenSealed(path string, opts arena.Options) (*model.Catalog, *core.Recommender, error) {
	m, err := arena.OpenFile(path, opts)
	if err != nil {
		return nil, nil, err
	}
	return fromVerified(m)
}

// fromVerified gates an opened arena behind Verify and wraps it. The
// catalog materializes here — once per staged model — so recommenders
// handed out by this path always have a screened, non-nil catalog.
func fromVerified(m *arena.Model) (*model.Catalog, *core.Recommender, error) {
	if err := m.Verify(); err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	cat, err := m.Catalog()
	if err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	rec, err := core.FromSealed(m)
	if err != nil {
		m.Arena().Close()
		return nil, nil, err
	}
	return cat, rec, nil
}

// Seal renders a heap-backed recommender into the sealed arena image.
// The rule table lists the final rules in MPF rank order followed by
// the per-item alternates (in matcher trie order) not already present —
// the exact set and order the serving layer enumerates — and each
// rule's response blob is rendered here, once, so serving never
// re-derives it.
func Seal(cat *model.Catalog, rec *core.Recommender) ([]byte, error) {
	space := rec.Space()
	if space == nil {
		return nil, errSealed
	}
	mainView, altView, ok := rec.MatcherViews()
	if !ok {
		return nil, fmt.Errorf("modelio: recommender matchers are unsealed (post-build Insert?)")
	}

	final := rec.Rules()
	table := append([]*rules.Rule(nil), final...)
	idxOf := make(map[*rules.Rule]int32, len(final))
	for i, r := range final {
		idxOf[r] = int32(i)
	}
	for _, r := range rec.Alternates() {
		if _, dup := idxOf[r]; !dup {
			idxOf[r] = int32(len(table))
			table = append(table, r)
		}
	}

	w, err := arena.NewWriter()
	if err != nil {
		return nil, err
	}
	if err := sealCatalog(w, cat); err != nil {
		return nil, err
	}
	exp := space.Expansions()
	w.PutI32(arena.SecExpOff, exp.Off)
	w.PutGen(arena.SecExpPool, exp.Pool)
	if err := sealRules(w, cat, rec, table); err != nil {
		return nil, err
	}
	if err := sealTrie(w, arena.SecTrieItem, mainView, idxOf); err != nil {
		return nil, err
	}
	if err := sealTrie(w, arena.SecAltItem, altView, idxOf); err != nil {
		return nil, err
	}

	stats := rec.Stats()
	w.SetMeta(arena.Meta{
		NumItems:        cat.NumItems(),
		NumPromos:       cat.NumPromos(),
		NumRules:        len(table),
		NumFinal:        len(final),
		Generated:       stats.RulesGenerated,
		NonDominated:    stats.RulesNonDominated,
		TreeDepth:       stats.TreeDepth,
		MOA:             space.MOA(),
		ProjectedProfit: stats.ProjectedProfit,
		TrieRootHi:      mainView.RootHi,
		AltRootHi:       altView.RootHi,
	})

	data, err := w.Finish()
	if err != nil {
		return nil, err
	}
	// Self-check: the image must round-trip through the opener before
	// anyone ships it. Open is O(1)-ish and Verify one hashing pass —
	// negligible next to the seal itself.
	m, err := arena.OpenBytes(data)
	if err != nil {
		return nil, fmt.Errorf("modelio: sealed image fails to re-open: %w", err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("modelio: sealed image fails verification: %w", err)
	}
	return data, nil
}

// SealFile seals to a file.
func SealFile(path string, cat *model.Catalog, rec *core.Recommender) error {
	data, err := Seal(cat, rec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sealCatalog fills the catalog sections: names pooled with offsets,
// target flags, and per-promo owning item + economics in global promo
// ID order (which is exactly what materializeCatalog replays).
func sealCatalog(w *arena.Writer, cat *model.Catalog) error {
	items := cat.Items()
	nameOff := make([]int32, len(items)+1)
	var namePool []byte
	targets := make([]byte, len(items))
	for i, it := range items {
		nameOff[i] = int32(len(namePool))
		namePool = append(namePool, it.Name...)
		if it.Target {
			targets[i] = 1
		}
	}
	nameOff[len(items)] = int32(len(namePool))

	n := cat.NumPromos()
	promoItem := make([]int32, n)
	econ := make([]float64, 3*n)
	for p := 1; p <= n; p++ {
		pc := cat.Promo(model.PromoID(p))
		promoItem[p-1] = int32(pc.Item)
		econ[3*(p-1)] = pc.Price
		econ[3*(p-1)+1] = pc.Cost
		econ[3*(p-1)+2] = pc.Packing
	}

	w.PutI32(arena.SecItemNameOff, nameOff)
	w.PutBytes(arena.SecItemNamePool, namePool)
	w.PutBytes(arena.SecItemTarget, targets)
	w.PutI32(arena.SecPromoItem, promoItem)
	w.PutF64(arena.SecPromoEcon, econ)
	return nil
}

// sealRules fills the columnar rule table: the rank columns, head,
// stable ID and response blob of each rule. The blob goes through the
// same code path the live server uses, which is what makes sealed
// responses byte-equal; the rule string and explanation lines are not
// stored apart, because the blob carries both.
func sealRules(w *arena.Writer, cat *model.Catalog, rec *core.Recommender, table []*rules.Rule) error {
	space := rec.Space()
	n := len(table)
	bodyLen := make([]int32, n)
	headItem := make([]int32, n)
	headPromo := make([]int32, n)
	bodyCount := make([]int32, n)
	hits := make([]int32, n)
	order := make([]int32, n)
	profRe := make([]float64, n)
	idPool := make([]byte, 0, n*arena.RuleIDLen)
	blobOff := make([]int64, n+1)
	var blobPool []byte

	for i, r := range table {
		bodyLen[i] = int32(len(r.Body))
		headItem[i] = int32(space.ItemOf(r.Head))
		headPromo[i] = int32(space.PromoOf(r.Head))
		bodyCount[i] = int32(r.BodyCount)
		hits[i] = int32(r.HitCount)
		order[i] = int32(r.Order)
		profRe[i] = r.ProfRe()

		id := rec.RuleID(r)
		if len(id) != arena.RuleIDLen {
			return fmt.Errorf("modelio: rule ID %q is %d bytes, format stores %d", id, len(id), arena.RuleIDLen)
		}
		idPool = append(idPool, id...)

		synth := core.Recommendation{
			Item:  space.ItemOf(r.Head),
			Promo: space.PromoOf(r.Head),
			Rule:  r,
			ID:    id,
			Idx:   -1,
		}
		blobOff[i] = int64(len(blobPool))
		blobPool = append(blobPool, core.MarshalWire(cat, rec, synth)...)
	}
	blobOff[n] = int64(len(blobPool))

	w.PutI32(arena.SecRuleBodyLen, bodyLen)
	w.PutI32(arena.SecRuleHeadItem, headItem)
	w.PutI32(arena.SecRuleHeadPromo, headPromo)
	w.PutI32(arena.SecRuleBodyCount, bodyCount)
	w.PutI32(arena.SecRuleHits, hits)
	w.PutI32(arena.SecRuleOrder, order)
	w.PutF64(arena.SecRuleProfRe, profRe)
	w.PutBytes(arena.SecRuleIDPool, idPool)
	w.PutI64(arena.SecRuleBlobOff, blobOff)
	w.PutBytes(arena.SecRuleBlobPool, blobPool)
	return nil
}

// sealTrie persists one flattened matcher trie verbatim, translating
// its *Rule lists into global rule-table indices.
func sealTrie(w *arena.Writer, base int, v rules.TrieView, idxOf map[*rules.Rule]int32) error {
	ruleIdx := make([]int32, len(v.Rules))
	for i, r := range v.Rules {
		ix, ok := idxOf[r]
		if !ok {
			return fmt.Errorf("modelio: trie references a rule outside the sealed table")
		}
		ruleIdx[i] = ix
	}
	defaults := make([]int32, len(v.Defaults))
	for i, r := range v.Defaults {
		ix, ok := idxOf[r]
		if !ok {
			return fmt.Errorf("modelio: default rule outside the sealed table")
		}
		defaults[i] = ix
	}
	w.PutGen(base+0, v.Item)
	w.PutI32(base+1, v.ChildLo)
	w.PutI32(base+2, v.ChildHi)
	w.PutI32(base+3, v.RuleLo)
	w.PutI32(base+4, v.RuleHi)
	w.PutI32(base+5, ruleIdx)
	w.PutI32(base+6, defaults)
	return nil
}
