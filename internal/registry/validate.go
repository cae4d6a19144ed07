package registry

import (
	"fmt"

	"profitmining/internal/core"
	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
)

// Probe is a golden basket a candidate model must answer before it can
// serve: items are referenced by name and promotion codes by index, the
// wire format of the serving layer. A probe passes when the candidate
// returns a non-empty recommendation (and, if ExpectItem is set, that
// item specifically).
type Probe struct {
	Basket     []ProbeSale
	ExpectItem string // optional: required top-1 recommended item name
}

// ProbeSale is one basket line of a probe.
type ProbeSale struct {
	Item    string
	PromoIx int
	Qty     float64
}

// Validate is the registry's gate: it rejects a candidate model that
// would crash or nonsense the serving layer. It checks that the pair is
// complete, the catalog validates, the final rule list is non-empty,
// every rule reference (head and body) resolves inside the candidate's
// own catalog, and every golden probe yields a recommendation.
func Validate(cat *model.Catalog, rec *core.Recommender, probes []Probe) error {
	if cat == nil || rec == nil {
		return fmt.Errorf("registry: incomplete candidate (nil catalog or recommender)")
	}
	if err := cat.Validate(); err != nil {
		return fmt.Errorf("registry: candidate catalog: %w", err)
	}
	space := rec.Space()
	if space == nil {
		if rec.Sealed() != nil {
			return validateSealed(cat, rec, probes)
		}
		return fmt.Errorf("registry: candidate recommender has no generalization space")
	}
	if space.Catalog() != cat {
		return fmt.Errorf("registry: candidate recommender was built over a different catalog")
	}
	if rec.Stats().RulesFinal == 0 || len(rec.Rules()) == 0 {
		return fmt.Errorf("registry: candidate has an empty final rule list")
	}

	for i, rule := range rec.Rules() {
		if err := checkRuleRefs(cat, space, rule.Head, rule.Body); err != nil {
			return fmt.Errorf("registry: final rule %d: %w", i, err)
		}
	}
	for i, rule := range rec.Alternates() {
		if err := checkRuleRefs(cat, space, rule.Head, rule.Body); err != nil {
			return fmt.Errorf("registry: alternate rule %d: %w", i, err)
		}
	}

	for i, p := range probes {
		if err := runProbe(cat, rec, p); err != nil {
			return fmt.Errorf("registry: golden probe %d: %w", i, err)
		}
	}
	return nil
}

// validateSealed is the gate for arena-backed candidates. Structural
// integrity was already enforced twice before a sealed model reaches
// here — arena.Open bounds-checks every section, and Verify ran the
// whole-file checksum and the interior scans at load, which keep every
// head item and promo inside the catalog — so the per-rule reference
// walk of the heap path reduces to one O(rules) pass checking that each
// head promo belongs to its item and that the item is a target.
func validateSealed(cat *model.Catalog, rec *core.Recommender, probes []Probe) error {
	sm := rec.Sealed()
	if rec.Catalog() != cat {
		return fmt.Errorf("registry: sealed candidate was opened with a different catalog")
	}
	if rec.Stats().RulesFinal == 0 || sm.Rules().N() == 0 {
		return fmt.Errorf("registry: candidate has an empty final rule list")
	}
	rt := sm.Rules()
	for i := 0; i < rt.N(); i++ {
		item, promo := model.ItemID(rt.HeadItem[i]), model.PromoID(rt.HeadPromo[i])
		if p := cat.Promo(promo); p.Item != item {
			return fmt.Errorf("registry: sealed rule %d: head promo %d belongs to item %d, not %d", i, promo, p.Item, item)
		}
		if !cat.Item(item).Target {
			return fmt.Errorf("registry: sealed rule %d: head recommends non-target item %q", i, cat.Item(item).Name)
		}
	}
	for i, p := range probes {
		if err := runProbe(cat, rec, p); err != nil {
			return fmt.Errorf("registry: golden probe %d: %w", i, err)
		}
	}
	return nil
}

// checkRuleRefs verifies that a rule's head is a concrete (item, promo)
// pair of the candidate catalog and that every body sale resolves to a
// node whose item/promo references stay inside the catalog.
func checkRuleRefs(cat *model.Catalog, space *hierarchy.Space, head hierarchy.GenID, body []hierarchy.GenID) error {
	if int(head) < 0 || int(head) >= space.NumNodes() {
		return fmt.Errorf("head node %d outside the space", head)
	}
	if space.Kind(head) != hierarchy.KindItemPromo {
		return fmt.Errorf("head %s is not an (item, promo) pair", space.Name(head))
	}
	item, promo := space.ItemOf(head), space.PromoOf(head)
	if item < 1 || int(item) > cat.NumItems() {
		return fmt.Errorf("head references unknown item %d", item)
	}
	if promo < 1 || int(promo) > cat.NumPromos() {
		return fmt.Errorf("head references unknown promo %d", promo)
	}
	if p := cat.Promo(promo); p.Item != item {
		return fmt.Errorf("head promo %d belongs to item %d, not %d", promo, p.Item, item)
	}
	if !cat.Item(item).Target {
		return fmt.Errorf("head recommends non-target item %q", cat.Item(item).Name)
	}
	for _, g := range body {
		if int(g) < 0 || int(g) >= space.NumNodes() {
			return fmt.Errorf("body node %d outside the space", g)
		}
		switch space.Kind(g) {
		case hierarchy.KindItem, hierarchy.KindItemPromo:
			bi := space.ItemOf(g)
			if bi < 1 || int(bi) > cat.NumItems() {
				return fmt.Errorf("body references unknown item %d", bi)
			}
		}
	}
	return nil
}

// runProbe decodes the golden basket against the candidate's catalog
// and requires a scoreable, non-empty recommendation.
func runProbe(cat *model.Catalog, rec *core.Recommender, p Probe) error {
	var basket model.Basket
	for i, ps := range p.Basket {
		item, ok := cat.ItemByName(ps.Item)
		if !ok {
			return fmt.Errorf("basket[%d]: unknown item %q", i, ps.Item)
		}
		if cat.Item(item).Target {
			return fmt.Errorf("basket[%d]: %q is a target item", i, ps.Item)
		}
		promos := cat.Promos(item)
		if ps.PromoIx < 0 || ps.PromoIx >= len(promos) {
			return fmt.Errorf("basket[%d]: item %q has no promo index %d", i, ps.Item, ps.PromoIx)
		}
		qty := ps.Qty
		if qty <= 0 {
			qty = 1
		}
		basket = append(basket, model.Sale{Item: item, Promo: promos[ps.PromoIx], Qty: qty})
	}
	recs := rec.RecommendTopK(basket, 1)
	if len(recs) == 0 {
		return fmt.Errorf("no recommendation for probe basket")
	}
	got := cat.Item(recs[0].Item).Name
	if p.ExpectItem != "" && got != p.ExpectItem {
		return fmt.Errorf("recommended %q, want %q", got, p.ExpectItem)
	}
	return nil
}
