// Package rules defines recommendation rules and their profit-mining
// measures (Definitions 4–6 of the paper): support, confidence, rule
// profit Prof_ru, recommendation profit Prof_re, the most-profitable-first
// (MPF) rank order, the body-generalization relation between rules, and
// the removal of dominated rules that can never fire.
package rules

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"profitmining/internal/hierarchy"
)

// Rule is a recommendation rule {g1,…,gk} → ⟨I,P⟩. The body is a sorted
// antichain of generalized non-target sales; the head is an item-promo
// node of a target item. The measure fields are filled by the miner from
// the training transactions:
//
//   - BodyCount is N, the number of transactions the body matches — the
//     denominator of Prof_re (Definition 5).
//   - HitCount is the number of matched transactions whose target sale is
//     generalized by the head, i.e. the absolute support of G ∪ {g}.
//   - Profit is Prof_ru = Σ_t p(r, t) over matched transactions.
//   - Order is the generation order, the final MPF tie-break.
type Rule struct {
	Body []hierarchy.GenID
	Head hierarchy.GenID

	BodyCount int
	HitCount  int
	Profit    float64
	Order     int
}

// Supp returns the relative support Supp(G ∪ {g}) given the total number
// of training transactions.
func (r *Rule) Supp(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(r.HitCount) / float64(total)
}

// Conf returns the confidence Supp(G∪{g})/Supp(G) = hits per body match.
func (r *Rule) Conf() float64 {
	if r.BodyCount == 0 {
		return 0
	}
	return float64(r.HitCount) / float64(r.BodyCount)
}

// ProfRe returns the recommendation profit Prof_re = Prof_ru / N: expected
// profit per time the rule fires. It factors in both the hit rate and the
// profit of the recommended promotion (Definition 5).
func (r *Rule) ProfRe() float64 {
	if r.BodyCount == 0 {
		return 0
	}
	return r.Profit / float64(r.BodyCount)
}

// IsDefault reports whether the rule is a default rule ∅ → g, which
// matches every customer.
func (r *Rule) IsDefault() bool { return len(r.Body) == 0 }

// String renders the rule with its measures using the space's node names.
func (r *Rule) String(s *hierarchy.Space) string {
	var b strings.Builder
	b.WriteString("{")
	for i, g := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name(g))
	}
	fmt.Fprintf(&b, "} → %s  [N=%d hits=%d prof_ru=%.4g prof_re=%.4g conf=%.3f]",
		s.Name(r.Head), r.BodyCount, r.HitCount, r.Profit, r.ProfRe(), r.Conf())
	return b.String()
}

// Outranks reports whether a is ranked strictly higher than b under the
// MPF order of Definition 6: greater recommendation profit, then greater
// support, then smaller body, then earlier generation.
func Outranks(a, b *Rule) bool {
	ap, bp := a.ProfRe(), b.ProfRe()
	if ap != bp { //lint:allow floatcmp -- rank comparators need exact comparison: epsilon-equality is not transitive and would break the strict weak order
		return ap > bp
	}
	if a.HitCount != b.HitCount {
		return a.HitCount > b.HitCount
	}
	if len(a.Body) != len(b.Body) {
		return len(a.Body) < len(b.Body)
	}
	return a.Order < b.Order
}

// SortByRank sorts rules in place from highest to lowest MPF rank. The
// order is total because Order is unique per rule. Rank keys are
// precomputed: with hundreds of thousands of mined rules, recomputing
// ProfRe and chasing rule pointers in the comparator dominated
// model-building profiles.
func SortByRank(rs []*Rule) {
	keys := make([]rankKey, len(rs))
	for i, r := range rs {
		keys[i] = rankKey{profRe: r.ProfRe(), hits: r.HitCount, bodyLen: len(r.Body), order: r.Order, r: r}
	}
	slices.SortFunc(keys, compareKeys)
	for i := range keys {
		rs[i] = keys[i].r
	}
}

// rankKey is a rule's MPF sort key, copied out of the rule once per sort.
type rankKey struct {
	profRe  float64
	hits    int
	bodyLen int
	order   int
	r       *Rule
}

// compareKeys orders keys exactly as CompareRank orders their rules.
func compareKeys(a, b rankKey) int {
	if a.profRe != b.profRe { //lint:allow floatcmp -- must order exactly as Outranks does; see the comparator note there
		if a.profRe > b.profRe {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(b.hits, a.hits); c != 0 {
		return c
	}
	if c := cmp.Compare(a.bodyLen, b.bodyLen); c != 0 {
		return c
	}
	return cmp.Compare(a.order, b.order)
}

// CompareRank is the MPF order of Definition 6 as a three-way
// comparator: negative when a outranks b, positive when b outranks a,
// zero only for a == b (Order is unique per rule, so the order is
// total). It is defined in terms of Outranks so the two can never
// drift apart.
func CompareRank(a, b *Rule) int {
	switch {
	case Outranks(a, b):
		return -1
	case Outranks(b, a):
		return 1
	default:
		return 0
	}
}

// SortRanked sorts rules in place from highest to lowest MPF rank
// without allocating — the serving hot path sorts a handful of
// per-item winners per request, where SortByRank's precomputed-key
// scaffolding would be a per-call allocation. For the large rule sets
// of model building, prefer SortByRank. The resulting order is
// identical.
//
//hot:path
func SortRanked(rs []*Rule) {
	slices.SortFunc(rs, CompareRank)
}

// MoreGeneral reports whether a's body generalizes b's body (Section 4.1):
// every element of body(a) generalizes-or-equals some element of body(b).
// It is reflexive; a default rule is more general than everything.
func MoreGeneral(s *hierarchy.Space, a, b *Rule) bool {
	return s.SetGeneralizes(a.Body, b.Body)
}

// NonDominated is the domination pass of model building. It drops every
// rule that is more special than and ranked lower than some other rule:
// such a rule can never be an MPF recommendation rule, because whatever
// it matches, the more general rule matches too and wins the rank
// comparison (Section 4.1). Heads play no role in that test: domination
// is about which rule fires, not what it recommends.
//
// It returns two sets, both in rank order:
//
//   - kept, the rules of filtered that no higher-ranked rule of filtered
//     generalizes — the candidates of the covering tree and the cut;
//   - alt, the rules of all that no higher-ranked rule with the same
//     target item generalizes — the per-item alternates behind top-K.
//
// filtered must be a subset of all (all itself when no interest filter
// ran). Walking in rank order, a rule is dominated iff some earlier kept
// rule of the same set is more general — checking against kept rules only
// is sound because generality is transitive, so a removed dominator's
// own dominator also dominates the candidate. Each check is a Matcher
// subset query over the candidate's body expansion, which is computed
// once per rule and shared by the per-item and the global query, so the
// whole pass is one sort plus near-linear work in the rule count.
//
// The per-item query runs first. When filtered is all, a rule dominated
// within its item is dominated globally too (its item's dominator is one
// of all), so the global query is skipped. When the filter removed rules
// that dominator may lie outside filtered, so filtered rules always take
// the global query.
func NonDominated(s *hierarchy.Space, all, filtered []*Rule) (kept, alt []*Rule) {
	ranked := append([]*Rule(nil), all...)
	SortByRank(ranked)
	var candidate map[*Rule]bool
	if len(filtered) != len(all) {
		candidate = make(map[*Rule]bool, len(filtered))
		for _, r := range filtered {
			candidate[r] = true
		}
	}
	global := &Matcher{}
	perItem := make([]*Matcher, s.Catalog().NumItems()+1) // by target item
	var buf []hierarchy.GenID
	for _, r := range ranked {
		buf = AppendExpandBody(s, r.Body, buf)
		item := s.ItemOf(r.Head)
		m := perItem[item]
		if m == nil {
			m = &Matcher{}
			perItem[item] = m
		}
		itemDominated := m.Any(buf)
		if !itemDominated {
			alt = append(alt, r)
			m.Insert(r)
		}
		if candidate == nil {
			if itemDominated {
				continue
			}
		} else if !candidate[r] {
			continue
		}
		if global.Any(buf) {
			continue
		}
		kept = append(kept, r)
		global.Insert(r)
	}
	return kept, alt
}

// FilterInteresting keeps rules whose recommendation profit beats that of
// every strictly more general rule by at least the factor r — the
// R-interest idea of Srikant–Agrawal's generalized rule mining [SA95]
// carried over from support to Prof_re: a specialization that does not
// improve the per-recommendation profit of its generalizations carries no
// actionable information. Rules with no proper generalization (including
// the default rule) are always kept. r ≤ 1 keeps any improvement;
// typical values are 1.1–2.
func FilterInteresting(s *hierarchy.Space, rs []*Rule, r float64) []*Rule {
	m := NewMatcher(rs)
	var kept []*Rule
	for _, rule := range rs {
		bestGeneral := 0.0
		found := false
		m.MatchAll(ExpandBody(s, rule.Body), func(g *Rule) {
			if g == rule {
				return
			}
			found = true
			if pr := g.ProfRe(); pr > bestGeneral {
				bestGeneral = pr
			}
		})
		if !found || rule.ProfRe() >= r*bestGeneral {
			kept = append(kept, rule)
		}
	}
	return kept
}

// Matches reports whether the rule's body matches the expanded basket (as
// produced by Space.ExpandBasket). Default rules match everything.
func (r *Rule) Matches(s *hierarchy.Space, expanded []hierarchy.GenID) bool {
	return s.BodyMatches(r.Body, expanded)
}

// BodyKey returns a compact string key identifying the rule's body, for
// use in maps. Bodies are sorted, so the key is canonical.
func BodyKey(body []hierarchy.GenID) string {
	b := make([]byte, 4*len(body))
	for i, g := range body {
		b[4*i] = byte(g)
		b[4*i+1] = byte(g >> 8)
		b[4*i+2] = byte(g >> 16)
		b[4*i+3] = byte(g >> 24)
	}
	return string(b)
}
