package arena

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"sync"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
)

// genID abbreviates the interned generalized-sale ID inside this
// package; sealed files store the same int32 values the space interned
// at build time (the expansion pool and the rule bodies come from one
// space, so they stay mutually consistent without the space itself).
type genID = hierarchy.GenID

// Model is the index-based view of one sealed arena: typed slices
// aliasing the mapping plus the lazily materialized catalog. It is
// immutable and safe for concurrent use; it keeps its Arena reachable,
// so views remain valid for the Model's lifetime.
type Model struct {
	a    *Arena
	meta Meta
	sec  func(int) []byte
	exp  expansions
	rt   RuleTable
	trie Trie
	alt  Trie

	catOnce sync.Once
	cat     *model.Catalog
	catErr  error
}

// Meta returns the sealed counts and build statistics.
func (m *Model) Meta() Meta { return m.meta }

// Catalog materializes the heap catalog on first call — O(items+promos)
// — and memoizes it. Deferring this is what keeps Open O(1) in model
// size: the hot serving path never touches the heap catalog, and the
// staging path pays the build exactly once per swapped-in model.
// Materialization re-screens the catalog sections' structural bounds
// (Verify also scans them, but a raw unverified open must not be able
// to panic here), and an error — impossible in a file that passed
// Verify — is memoized like success.
func (m *Model) Catalog() (*model.Catalog, error) {
	m.catOnce.Do(func() { m.cat, m.catErr = materializeCatalog(m.meta, m.sec) })
	return m.cat, m.catErr
}

// Expansions returns the per-promotion sale expansions as the shared
// hierarchy view, aliasing the mapping.
func (m *Model) Expansions() hierarchy.Expansions {
	return hierarchy.Expansions{Off: m.exp.off, Pool: m.exp.pool}
}

// Rules returns the columnar rule table.
func (m *Model) Rules() *RuleTable { return &m.rt }

// Trie returns the flattened matcher trie over the final rules.
func (m *Model) Trie() *Trie { return &m.trie }

// Alternates returns the flattened per-item alternates trie.
func (m *Model) Alternates() *Trie { return &m.alt }

// Arena returns the backing arena (for Close and Bytes).
func (m *Model) Arena() *Arena { return m.a }

// expansions is the aliased hierarchy.Expansions layout.
type expansions struct {
	off  []int32
	pool []genID
}

// validate bounds-checks the offset array once at open — O(promos) —
// so a structurally corrupt file cannot index outside the pool at
// serve time.
func (e expansions) validate(poolBytes int) error {
	n := poolBytes / 4
	prev := int32(0)
	for i, off := range e.off {
		if off < prev || int(off) > n {
			return errf("expansion offset %d at promo %d escapes its %d-entry pool", off, i, n)
		}
		prev = off
	}
	if len(e.off) > 0 && int(e.off[len(e.off)-1]) != n {
		return errf("expansion offsets end at %d, pool holds %d entries", e.off[len(e.off)-1], n)
	}
	return nil
}

// RuleTable is the columnar form of every servable rule: the final
// rules in MPF rank order (the first Meta.NumFinal entries) followed
// by the per-item alternates not already present. All slices alias the
// mapping; none may be modified.
type RuleTable struct {
	HeadItem  []int32
	HeadPromo []int32
	BodyCount []int32
	Hits      []int32
	Order     []int32
	ProfRe    []float64

	bodyLen  []int32
	idPool   []byte
	blobOff  []int64
	blobPool []byte
}

// WireRecommendation is the serving wire shape of one scored
// recommendation — the object POST /recommend returns per slot. Model
// sealing marshals one per rule into the blob pool, which the HTTP
// layer serves verbatim and String and ExplainJoined decode. Field
// order is part of the wire contract; do not reorder.
type WireRecommendation struct {
	Item    string   `json:"item"`
	PromoIx int      `json:"promoIx"`
	Price   float64  `json:"price"`
	Cost    float64  `json:"cost"`
	Packing float64  `json:"packing"`
	Profit  float64  `json:"profitPerSale"`
	ProfRe  float64  `json:"profRe"`
	Conf    float64  `json:"confidence"`
	RuleID  string   `json:"ruleID"`
	Rule    string   `json:"rule"`
	Explain []string `json:"explain,omitempty"`
}

// N returns the number of rules in the table.
func (t *RuleTable) N() int { return len(t.HeadItem) }

// BodyLen returns len(body) for rule i.
//
//hot:path
func (t *RuleTable) BodyLen(i int32) int32 { return t.bodyLen[i] }

// ID returns rule i's stable content-hash identity ("r"+16 hex,
// rules.StableID) as a zero-copy string over the mapping.
//
//hot:path
func (t *RuleTable) ID(i int32) string {
	return byteString(t.idPool[int(i)*RuleIDLen : (int(i)+1)*RuleIDLen])
}

// wire decodes rule i's blob, or returns the zero value for a blob
// that is not a WireRecommendation (a partial decode is discarded).
func (t *RuleTable) wire(i int32) WireRecommendation {
	var w WireRecommendation
	if json.Unmarshal(t.Blob(i), &w) != nil {
		return WireRecommendation{}
	}
	return w
}

// String returns rule i rendered with its measures, as
// rules.Rule.String produced it at seal time, or "" if the blob does
// not decode. It decodes the blob; the /recommend path never calls it.
func (t *RuleTable) String(i int32) string {
	return t.wire(i).Rule
}

// ExplainJoined returns rule i's explanation lines (the covering-tree
// lineage rendered at seal time) joined with '\n', or "" if the blob
// does not decode.
func (t *RuleTable) ExplainJoined(i int32) string {
	return strings.Join(t.wire(i).Explain, "\n")
}

// Blob returns rule i's pre-marshaled recommendation JSON, served
// verbatim by the HTTP layer. Must not be modified.
//
//hot:path
func (t *RuleTable) Blob(i int32) []byte {
	return t.blobPool[t.blobOff[i]:t.blobOff[i+1]]
}

// Conf returns rule i's confidence Hits/BodyCount, 0 for a rule whose
// body never occurred — the guard rules.Rule.Conf applies.
func (t *RuleTable) Conf(i int32) float64 {
	if t.BodyCount[i] == 0 {
		return 0
	}
	return float64(t.Hits[i]) / float64(t.BodyCount[i])
}

// Outranks reports whether rule a outranks rule b under the MPF order
// of Definition 6 — the index twin of rules.Outranks, reading the
// sealed Prof_re column instead of recomputing the division.
//
//hot:path
func (t *RuleTable) Outranks(a, b int32) bool {
	ap, bp := t.ProfRe[a], t.ProfRe[b]
	if ap != bp { //lint:allow floatcmp -- rank comparators need exact comparison, as in rules.Outranks
		return ap > bp
	}
	if t.Hits[a] != t.Hits[b] {
		return t.Hits[a] > t.Hits[b]
	}
	if la, lb := t.BodyLen(a), t.BodyLen(b); la != lb {
		return la < lb
	}
	return t.Order[a] < t.Order[b]
}

// validate scans the blob offsets and head columns — O(rules) — so
// Blob never slices outside the pool and HeadItem, which indexes
// top-K's per-item table, stays in range.
func (t *RuleTable) validate(meta Meta) error {
	prev := int64(0)
	for i, off := range t.blobOff {
		if off < prev || off > int64(len(t.blobPool)) {
			return errf("blob offset %d at rule %d escapes its %d-byte pool or runs backwards", off, i, len(t.blobPool))
		}
		prev = off
	}
	for i, item := range t.HeadItem {
		if item < 1 || int(item) > meta.NumItems {
			return errf("rule %d head references unknown item %d", i, item)
		}
		if promo := t.HeadPromo[i]; promo < 1 || int(promo) > meta.NumPromos {
			return errf("rule %d head references unknown promo %d", i, promo)
		}
	}
	return nil
}

// Trie is the sealed form of rules.Matcher's flattened trie: node i's
// children occupy nodes [ChildLo[i], ChildHi[i]) and its rules occupy
// Rules[RuleLo[i]:RuleHi[i]] as global rule-table indices. The root's
// children are [0, RootHi); Defaults lists the empty-body rules.
type Trie struct {
	Item                             []genID
	ChildLo, ChildHi, RuleLo, RuleHi []int32
	Rules                            []int32
	Defaults                         []int32
	RootHi                           int32
}

// validate scans the node and rule-list columns — O(nodes + rule
// entries) — so the trie walks never step outside a column and every
// rule they yield indexes the rcount-rule table. Child blocks must tile
// the nodes after the root block in order, as the BFS flattening lays
// them out: then every node has at most one parent, so a walk visits
// each node at most once instead of looping back through an ancestor.
func (t *Trie) validate(rcount int, what string) error {
	next := t.RootHi
	for i := range t.Item {
		if lo, hi := t.ChildLo[i], t.ChildHi[i]; lo != next || hi < lo || int(hi) > len(t.Item) {
			return errf("%s node %d child block [%d,%d) does not start at %d or escapes its %d nodes", what, i, lo, hi, next, len(t.Item))
		}
		next = t.ChildHi[i]
		if lo, hi := t.RuleLo[i], t.RuleHi[i]; lo < 0 || lo > hi || int(hi) > len(t.Rules) {
			return errf("%s node %d rule block [%d,%d) escapes its %d-entry rule list", what, i, lo, hi, len(t.Rules))
		}
	}
	if int(next) != len(t.Item) {
		return errf("%s child blocks end at node %d of %d", what, next, len(t.Item))
	}
	for i, r := range t.Rules {
		if r < 0 || int(r) >= rcount {
			return errf("%s rule entry %d is index %d, outside the %d-rule table", what, i, r, rcount)
		}
	}
	return nil
}

// validateCatalog bounds-checks the catalog sections at open —
// O(items+promos) with no allocations — so a structurally corrupt file
// fails Open loudly instead of handing out views that blow up on first
// materialization.
func validateCatalog(meta Meta, sec func(int) []byte) error {
	nameOff := alias[int32](sec(SecItemNameOff))
	poolLen := len(sec(SecItemNamePool))
	prev := int32(0)
	for i := 0; i < meta.NumItems; i++ {
		lo, hi := nameOff[i], nameOff[i+1]
		if lo < prev || hi <= lo || int(hi) > poolLen {
			return errf("item %d name offsets [%d,%d) escape the name pool or name an empty item", i+1, lo, hi)
		}
		prev = hi
	}
	for p, item := range alias[int32](sec(SecPromoItem)) {
		if item < 1 || int(item) > meta.NumItems {
			return errf("promo %d belongs to unknown item %d", p+1, item)
		}
	}
	return nil
}

// materializeCatalog rebuilds a *model.Catalog from the catalog
// sections. Promos are stored in global ID order, so AddPromo
// reproduces both the IDs and each item's ladder order exactly as the
// original catalog had them. Offsets and ranges are screened up front
// (redundantly with Verify, deliberately — see Catalog); beyond that,
// only name uniqueness needs checking here (the one property a map is
// needed for).
func materializeCatalog(meta Meta, sec func(int) []byte) (*model.Catalog, error) {
	if err := validateCatalog(meta, sec); err != nil {
		return nil, err
	}
	nameOff := alias[int32](sec(SecItemNameOff))
	namePool := sec(SecItemNamePool)
	targets := sec(SecItemTarget)
	promoItem := alias[int32](sec(SecPromoItem))
	econ := alias[float64](sec(SecPromoEcon))

	cat := model.NewCatalog()
	seen := make(map[string]bool, meta.NumItems)
	for i := 0; i < meta.NumItems; i++ {
		name := string(namePool[nameOff[i]:nameOff[i+1]])
		if seen[name] {
			return nil, errf("item %d duplicates the name %q", i+1, name)
		}
		seen[name] = true
		cat.AddItem(name, targets[i] != 0)
	}
	for p := 0; p < meta.NumPromos; p++ {
		cat.AddPromo(model.ItemID(promoItem[p]), econ[3*p], econ[3*p+1], econ[3*p+2])
	}
	return cat, nil
}

func lefloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func putLefloat(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}
