package core

import (
	"encoding/json"

	"profitmining/internal/arena"
	"profitmining/internal/model"
)

// PromoIndex maps a promo ID back to its wire-format index within its
// item's ladder (-1 if absent, which cannot happen for a valid model).
func PromoIndex(cat *model.Catalog, item model.ItemID, promo model.PromoID) int {
	for i, pid := range cat.Promos(item) {
		if pid == promo {
			return i
		}
	}
	return -1
}

// MarshalWire renders one recommendation of a heap-backed recommender
// against its catalog as an arena.WireRecommendation. Every field is a
// function of the fired rule alone, which is what lets the sealed arena
// precompute the marshaled form per rule.
func MarshalWire(cat *model.Catalog, r *Recommender, rec Recommendation) json.RawMessage {
	promo := cat.Promo(rec.Promo)
	data, err := json.Marshal(arena.WireRecommendation{
		Item:    cat.Item(rec.Item).Name,
		PromoIx: PromoIndex(cat, rec.Item, rec.Promo),
		Price:   promo.Price,
		Cost:    promo.Cost,
		Packing: promo.Packing,
		Profit:  promo.Profit(),
		ProfRe:  rec.Rule.ProfRe(),
		Conf:    rec.Rule.Conf(),
		RuleID:  r.RuleID(rec.Rule),
		Rule:    rec.Rule.String(r.Space()),
		Explain: r.Explain(rec),
	})
	if err != nil {
		// Unreachable for validated models (plain strings and finite
		// floats); kept so a pathological value degrades one slot, not
		// the whole response.
		return json.RawMessage(`{"error":"unencodable recommendation"}`)
	}
	return data
}
