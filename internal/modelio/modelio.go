// Package modelio persists built recommenders. A model file is
// self-contained: it embeds the catalog, the concept hierarchy, the MOA
// flag, the pruned covering tree (rules with their measures and projected
// profits) and the per-item alternate rules, so a loaded model can answer
// Recommend/RecommendTopK/Explain queries without the training data.
//
// Generalized sales are serialized structurally (item names, promotion
// indexes, concept names) rather than as interned IDs, so files survive
// any internal renumbering.
package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"profitmining/internal/arena"
	"profitmining/internal/core"
	"profitmining/internal/dataio"
	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
	"profitmining/internal/rules"
)

// Format versions. v1 files carry no checksum and are still read for
// backward compatibility; v2 adds a mandatory payload checksum so a
// truncated or bit-flipped file fails loudly instead of restoring a
// silently corrupted model (the registry's validation gate depends on
// this).
const (
	formatV1 = "profitmining-model/v1"
	formatV2 = "profitmining-model/v2"
)

// genJSON is the structural form of one generalized sale.
type genJSON struct {
	Kind    string `json:"kind"`              // "concept" | "item" | "promo"
	Name    string `json:"name,omitempty"`    // concept or item name
	Item    string `json:"item,omitempty"`    // promo: owning item name
	PromoIx int    `json:"promoIx,omitempty"` // promo: index within the item's promos
}

type ruleJSON struct {
	// ID is the rule's stable content-hash identity (rules.StableID),
	// recorded so operators can join serving logs and feedback outcomes
	// against the model file offline. It is derived data: Load recomputes
	// it from body/head and rejects a file whose stored ID disagrees,
	// which catches hand-edited rule bodies even on v1 files without a
	// payload checksum. Files without the field (pre-feedback saves) load
	// normally.
	ID string `json:"id,omitempty"`

	Body      []genJSON `json:"body,omitempty"`
	Head      genJSON   `json:"head"`
	BodyCount int       `json:"n"`
	HitCount  int       `json:"hits"`
	Profit    float64   `json:"profit"`
	Order     int       `json:"order"`
}

type nodeJSON struct {
	Rule      ruleJSON    `json:"rule"`
	Projected float64     `json:"projected"`
	CoverSize int         `json:"coverSize"`
	Children  []*nodeJSON `json:"children,omitempty"`
}

type modelFile struct {
	Format       string                `json:"format"`
	Checksum     string                `json:"checksum,omitempty"` // sha256 of the compact encoding with Checksum cleared (v2+)
	MOA          bool                  `json:"moa"`
	Items        []dataio.ItemJSON     `json:"items"`
	Promos       []dataio.PromoJSON    `json:"promos"`
	Hierarchy    *dataio.HierarchySpec `json:"hierarchy,omitempty"`
	Generated    int                   `json:"rulesGenerated"`
	NonDominated int                   `json:"rulesNonDominated"`
	Tree         *nodeJSON             `json:"tree"`
	Alternates   []ruleJSON            `json:"alternates,omitempty"`
}

// errSealed rejects a sealed recommender where a heap one is required:
// the sealed image keeps no covering tree or generalization space to
// re-encode (a sealed model persists as its image bytes).
var errSealed = errors.New("modelio: recommender is already sealed")

// Save serializes a recommender with its catalog and hierarchy spec.
// A sealed recommender is an error.
func Save(w io.Writer, cat *model.Catalog, spec *dataio.HierarchySpec, rec *core.Recommender) error {
	space := rec.Space()
	if space == nil {
		return errSealed
	}
	enc := encoder{space: space, cat: cat}

	mf := modelFile{
		Format:       formatV2,
		MOA:          space.MOA(),
		Hierarchy:    spec,
		Generated:    rec.Stats().RulesGenerated,
		NonDominated: rec.Stats().RulesNonDominated,
	}
	mf.Items, mf.Promos = dataio.EncodeCatalog(cat)

	var err error
	mf.Tree, err = enc.node(rec.Tree())
	if err != nil {
		return err
	}
	for _, r := range rec.Alternates() {
		rj, err := enc.rule(r)
		if err != nil {
			return err
		}
		mf.Alternates = append(mf.Alternates, rj)
	}

	if mf.Checksum, err = checksum(&mf); err != nil {
		return err
	}
	e := json.NewEncoder(w)
	e.SetIndent("", " ")
	return e.Encode(&mf)
}

// checksum hashes the compact JSON encoding of mf with the Checksum
// field cleared. Both Save and Load derive the bytes by marshaling the
// same struct, so indentation and field layout cancel out, while any
// content change — a flipped bit inside a name, a dropped rule — shows
// up on re-encoding. encoding/json is deterministic here: struct fields
// encode in declaration order and map keys sort.
func checksum(mf *modelFile) (string, error) {
	clean := *mf
	clean.Checksum = ""
	data, err := json.Marshal(&clean)
	if err != nil {
		return "", fmt.Errorf("modelio: hashing model: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Load deserializes a model file back into a usable recommender and its
// catalog.
func Load(r io.Reader) (*model.Catalog, *core.Recommender, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, nil, fmt.Errorf("modelio: decoding model (truncated or corrupt file?): %w", err)
	}
	if err := verifyHeader(&mf); err != nil {
		return nil, nil, err
	}

	cat, err := dataio.DecodeCatalog(mf.Items, mf.Promos)
	if err != nil {
		return nil, nil, err
	}
	hb, err := mf.Hierarchy.Builder(cat)
	if err != nil {
		return nil, nil, err
	}
	space, err := hb.Compile(hierarchy.Options{MOA: mf.MOA})
	if err != nil {
		return nil, nil, err
	}

	dec := decoder{space: space, cat: cat}
	root, err := dec.node(mf.Tree, nil)
	if err != nil {
		return nil, nil, err
	}
	var alternates []*rules.Rule
	for i := range mf.Alternates {
		rule, err := dec.rule(&mf.Alternates[i])
		if err != nil {
			return nil, nil, err
		}
		alternates = append(alternates, rule)
	}

	rec, err := core.Restore(space, root, alternates, mf.Generated, mf.NonDominated)
	if err != nil {
		return nil, nil, err
	}
	return cat, rec, nil
}

// SaveFile and LoadFile are the path-based conveniences. SaveFile
// encodes in memory first, so a model that fails to encode leaves no
// file behind.
func SaveFile(path string, cat *model.Catalog, spec *dataio.HierarchySpec, rec *core.Recommender) error {
	var buf bytes.Buffer
	if err := Save(&buf, cat, spec, rec); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Verify checks a model stream's format version and payload checksum
// without restoring the recommender — the cheap integrity probe used
// before shipping a file to a serving fleet. v1 files (pre-checksum)
// verify structurally only.
func Verify(r io.Reader) error {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return fmt.Errorf("modelio: decoding model (truncated or corrupt file?): %w", err)
	}
	return verifyHeader(&mf)
}

// verifyHeader checks the format version, the v2+ payload checksum, and
// the presence of the covering tree. v1 files (pre-checksum) pass on
// format alone.
func verifyHeader(mf *modelFile) error {
	switch mf.Format {
	case formatV2:
		if mf.Checksum == "" {
			return fmt.Errorf("modelio: %s file is missing its checksum", formatV2)
		}
		want, err := checksum(mf)
		if err != nil {
			return err
		}
		if mf.Checksum != want {
			return fmt.Errorf("modelio: checksum mismatch (file corrupt?): header %.8s, content %.8s", mf.Checksum, want)
		}
	case formatV1:
	default:
		return fmt.Errorf("modelio: unsupported format %q", mf.Format)
	}
	if mf.Tree == nil {
		return fmt.Errorf("modelio: model has no covering tree")
	}
	return nil
}

// VerifyFile is the path-based form of Verify. Sealed (v3) files are
// sniffed by magic and verified with their whole-file checksum.
func VerifyFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if sniffSealed(f) {
		m, err := arena.OpenFile(path, arena.Options{})
		if err != nil {
			return err
		}
		defer m.Arena().Close()
		return m.Verify()
	}
	return Verify(f)
}

// LoadFile reads a model file of any format from disk: sealed (v3)
// files open by mmap, v1/v2 decode as JSON.
func LoadFile(path string) (*model.Catalog, *core.Recommender, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if sniffSealed(f) {
		f.Close()
		return OpenSealed(path, arena.Options{})
	}
	defer f.Close()
	return Load(f)
}

// sniffSealed peeks the magic at the start of f and rewinds.
func sniffSealed(f *os.File) bool {
	var prefix [arena.HeaderPrefixLen]byte
	n, _ := f.ReadAt(prefix[:], 0) //lint:allow droppederr -- a short or failed read simply fails the sniff; the JSON path reports the real error
	return arena.SniffMagic(prefix[:n])
}

type encoder struct {
	space *hierarchy.Space
	cat   *model.Catalog
}

func (e encoder) gen(g hierarchy.GenID) (genJSON, error) {
	switch e.space.Kind(g) {
	case hierarchy.KindConcept:
		return genJSON{Kind: "concept", Name: e.space.Name(g)}, nil
	case hierarchy.KindItem:
		return genJSON{Kind: "item", Name: e.cat.Item(e.space.ItemOf(g)).Name}, nil
	case hierarchy.KindItemPromo:
		item := e.space.ItemOf(g)
		pid := e.space.PromoOf(g)
		for i, p := range e.cat.Promos(item) {
			if p == pid {
				return genJSON{Kind: "promo", Item: e.cat.Item(item).Name, PromoIx: i}, nil
			}
		}
		return genJSON{}, fmt.Errorf("modelio: promo %d not found on item %d", pid, item)
	default:
		return genJSON{}, fmt.Errorf("modelio: cannot serialize node kind %v", e.space.Kind(g))
	}
}

func (e encoder) rule(r *rules.Rule) (ruleJSON, error) {
	rj := ruleJSON{
		ID:        rules.StableID(e.space, r),
		BodyCount: r.BodyCount,
		HitCount:  r.HitCount,
		Profit:    r.Profit,
		Order:     r.Order,
	}
	var err error
	if rj.Head, err = e.gen(r.Head); err != nil {
		return rj, err
	}
	for _, g := range r.Body {
		gj, err := e.gen(g)
		if err != nil {
			return rj, err
		}
		rj.Body = append(rj.Body, gj)
	}
	return rj, nil
}

func (e encoder) node(n *core.Node) (*nodeJSON, error) {
	rj, err := e.rule(n.Rule)
	if err != nil {
		return nil, err
	}
	nj := &nodeJSON{Rule: rj, Projected: n.Projected, CoverSize: len(n.Cover)}
	for _, c := range n.Children {
		cj, err := e.node(c)
		if err != nil {
			return nil, err
		}
		nj.Children = append(nj.Children, cj)
	}
	return nj, nil
}

type decoder struct {
	space *hierarchy.Space
	cat   *model.Catalog
}

func (d decoder) gen(gj genJSON) (hierarchy.GenID, error) {
	switch gj.Kind {
	case "concept":
		for g := 0; g < d.space.NumNodes(); g++ {
			id := hierarchy.GenID(g)
			if d.space.Kind(id) == hierarchy.KindConcept && d.space.Name(id) == gj.Name {
				return id, nil
			}
		}
		return 0, fmt.Errorf("modelio: unknown concept %q", gj.Name)
	case "item":
		item, ok := d.cat.ItemByName(gj.Name)
		if !ok {
			return 0, fmt.Errorf("modelio: unknown item %q", gj.Name)
		}
		return d.space.ItemNode(item), nil
	case "promo":
		item, ok := d.cat.ItemByName(gj.Item)
		if !ok {
			return 0, fmt.Errorf("modelio: unknown item %q", gj.Item)
		}
		promos := d.cat.Promos(item)
		if gj.PromoIx < 0 || gj.PromoIx >= len(promos) {
			return 0, fmt.Errorf("modelio: item %q has no promo index %d", gj.Item, gj.PromoIx)
		}
		return d.space.PromoNode(promos[gj.PromoIx]), nil
	default:
		return 0, fmt.Errorf("modelio: unknown generalized-sale kind %q", gj.Kind)
	}
}

func (d decoder) rule(rj *ruleJSON) (*rules.Rule, error) {
	r := &rules.Rule{
		BodyCount: rj.BodyCount,
		HitCount:  rj.HitCount,
		Profit:    rj.Profit,
		Order:     rj.Order,
	}
	var err error
	if r.Head, err = d.gen(rj.Head); err != nil {
		return nil, err
	}
	for _, gj := range rj.Body {
		g, err := d.gen(gj)
		if err != nil {
			return nil, err
		}
		r.Body = append(r.Body, g)
	}
	// Bodies are stored in canonical (sorted) order already, but sort
	// defensively: matching relies on it.
	for i := 1; i < len(r.Body); i++ {
		for j := i; j > 0 && r.Body[j] < r.Body[j-1]; j-- {
			r.Body[j], r.Body[j-1] = r.Body[j-1], r.Body[j]
		}
	}
	if rj.ID != "" {
		if want := rules.StableID(d.space, r); rj.ID != want {
			return nil, fmt.Errorf("modelio: rule ID %s does not match its content (want %s); file edited?", rj.ID, want)
		}
	}
	return r, nil
}

func (d decoder) node(nj *nodeJSON, parent *core.Node) (*core.Node, error) {
	rule, err := d.rule(&nj.Rule)
	if err != nil {
		return nil, err
	}
	n := &core.Node{Rule: rule, Parent: parent, Projected: nj.Projected}
	for _, cj := range nj.Children {
		c, err := d.node(cj, n)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}
