// Package core implements the paper's primary contribution: the MPF
// recommender over profit-sensitive generalized association rules and its
// cut-optimal pruning (Sections 3.2 and 4).
//
// Build takes the mined rule set R (see internal/mining), removes rules
// that can never fire, arranges the survivors into the covering tree of
// Definition 8, and prunes the tree bottom-up to the unique optimal cut
// of Definition 9, maximizing the pessimistically projected profit on
// future customers. The resulting Recommender answers Recommend queries
// by most-profitable-first rule selection (Definition 6).
package core

import (
	"fmt"
	"sync"

	"profitmining/internal/arena"
	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/par"
	"profitmining/internal/rules"
	"profitmining/internal/stats"
)

// Config controls recommender construction.
type Config struct {
	// CF is the confidence level of the pessimistic estimate U_CF
	// (default stats.DefaultCF = 0.25, as in C4.5).
	CF float64

	// Prune enables cut-optimal pruning. PruneOff keeps the full MPF
	// recommender of Section 3 (used by tests and ablations).
	Prune PruneMode

	// BinaryProfit must match the mining option: p(r,t) ∈ {0,1}. It makes
	// the projected profit a projected hit count (the CONF variants).
	BinaryProfit bool

	// Quantity must match the mining option (default model.SavingMOA).
	Quantity model.QuantityModel

	// MinInterest, when above 1, drops rules whose recommendation profit
	// does not beat every more general rule's by this factor before the
	// covering tree is built — the R-interest filter of [SA95] adapted to
	// Prof_re (see rules.FilterInteresting). 0 disables it.
	MinInterest float64

	// Parallelism bounds the worker pool used for covering-tree
	// construction (MPF cover assignment and per-node profit projection).
	// 0 (default) uses one worker per available CPU; 1 runs strictly
	// serial. Every setting yields byte-identical recommenders. When
	// Parallelism != 1, Quantity must be safe for concurrent use (the
	// built-in models are stateless).
	Parallelism int
}

// PruneMode selects whether Build prunes the covering tree.
type PruneMode int

const (
	// PruneCutOptimal applies the bottom-up optimal-cut pruning (default).
	PruneCutOptimal PruneMode = iota
	// PruneOff keeps every non-dominated rule.
	PruneOff
)

// BuildStats reports what construction did.
type BuildStats struct {
	RulesGenerated    int     // mined rules incl. the default rule
	RulesNonDominated int     // after removing rules that can never fire
	RulesFinal        int     // after cut-optimal pruning
	ProjectedProfit   float64 // Σ Prof_pr over the final tree
	TreeDepth         int
}

// Recommender is the built model: a pruned rule set with MPF selection.
// It is immutable and safe for concurrent use.
type Recommender struct {
	space   *hierarchy.Space
	final   []*rules.Rule
	matcher *rules.Matcher
	tree    *Node
	stats   BuildStats

	// sealed, when non-nil, marks an arena-backed recommender
	// (FromSealed): every field above except stats is nil, and the
	// recommend paths walk the arena's index-based views instead. exp
	// caches the arena's expansion view so the hot path does not
	// re-derive it per call.
	sealed *arena.Model
	exp    hierarchy.Expansions

	// alternates holds, per target item, the non-dominated rules for that
	// item alone. RecommendTopK uses it to offer a distinct best rule per
	// item even when global MPF domination kept only one head per body.
	alternates *rules.Matcher

	// ruleNode indexes the covering tree by rule, so Explain is one map
	// lookup instead of a recursive tree search per call. Alternate rules
	// that were pruned from (or never entered) the tree are absent.
	ruleNode map[*rules.Rule]*Node

	// ids caches every servable rule's stable content-hash identity
	// (rules.StableID), precomputed at assemble so the recommend hot path
	// attaches identity with one map lookup and zero hashing.
	ids map[*rules.Rule]string

	// scratch pools the per-call working state of Recommend and
	// RecommendTopK, keyed per recommender because the dense
	// best-per-item table is sized to this model's catalog.
	scratch sync.Pool
}

// scratch is the reusable per-call state of the recommend hot path. All
// slices keep their backing storage between calls; bestPerItem is a
// dense table indexed by model.ItemID (assigned from 1, so its length
// is NumItems()+1) that is cleared back to nil via the touched list —
// O(touched), not O(items) — before the scratch is returned.
type scratch struct {
	expanded    []hierarchy.GenID
	matches     []*rules.Rule
	bestPerItem []*rules.Rule
	touched     []model.ItemID
	rest        []*rules.Rule

	// Sealed-mode twins: rule-table indices instead of pointers. bestIdx
	// stores index+1 so the zero value means empty; only the mode a
	// recommender runs in allocates its table (see FromSealed/assemble).
	matchIdx []int32
	bestIdx  []int32
	restIdx  []int32
}

func (r *Recommender) getScratch() *scratch {
	return r.scratch.Get().(*scratch)
}

func (r *Recommender) putScratch(sc *scratch) {
	r.scratch.Put(sc)
}

// Recommendation is one recommended (target item, promotion code) pair
// together with the rule that produced it, for explanation (Requirement 5
// of Section 1.2). ID is the fired rule's stable content-hash identity
// (rules.StableID): the join key an outcome report uses to find its way
// back to this exact rule, even after the serving model has been
// hot-swapped.
type Recommendation struct {
	Item  model.ItemID
	Promo model.PromoID
	Rule  *rules.Rule
	ID    string

	// Idx is the fired rule's arena rule-table index when the recommender
	// is sealed (Rule is nil then); -1 otherwise. The serving layer uses
	// it to fetch the pre-marshaled recommendation blob without touching
	// heap rule objects.
	Idx int32
}

// Build constructs the recommender from mined rules over the same space
// and training transactions used for mining.
func Build(space *hierarchy.Space, txns []model.Transaction, mined *mining.Result, cfg Config) (*Recommender, error) {
	if space == nil || mined == nil || mined.Default == nil {
		return nil, fmt.Errorf("core: nil space or mining result")
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	workers := par.Workers(cfg.Parallelism)

	all := mined.AllRules()
	filtered := all
	if cfg.MinInterest > 1 {
		filtered = rules.FilterInteresting(space, all, cfg.MinInterest)
		// The default rule has no generalization so it always survives
		// the filter; the covering tree keeps its root.
	}
	kept, alt := rules.NonDominated(space, all, filtered)

	root := buildCoveringTree(space, kept, txns, workers)
	eval := &pessimisticEvaluator{
		space:    space,
		txns:     txns,
		cf:       cfg.CF,
		binary:   cfg.BinaryProfit,
		quantity: cfg.Quantity,
	}
	// Own-cover projections are independent per node, so they fan out
	// over the pool; under PruneOff they are the final values, and under
	// cut-optimal pruning they seed the serial bottom-up traversal
	// (which only re-evaluates merged covers).
	projectTree(root, eval, workers)
	if cfg.Prune == PruneCutOptimal {
		pruneCutOptimal(root, eval)
	}

	final := collectRules(root)
	rules.SortByRank(final)

	return assemble(space, root, final, alt, len(all), len(kept)), nil
}

// normalized applies Config defaults and validates the explicit fields.
func (cfg Config) normalized() (Config, error) {
	if cfg.CF == 0 { //lint:allow floatcmp -- exact zero is the unset-field sentinel; any explicit CF is validated below
		cfg.CF = stats.DefaultCF
	}
	if cfg.CF <= 0 || cfg.CF >= 1 {
		return cfg, fmt.Errorf("core: CF %g outside (0,1)", cfg.CF)
	}
	if cfg.Quantity == nil {
		cfg.Quantity = model.SavingMOA{}
	}
	if cfg.Parallelism < 0 {
		return cfg, fmt.Errorf("core: negative Parallelism %d", cfg.Parallelism)
	}
	return cfg, nil
}

// assemble wires the derived serving structures — matchers, the
// rule-to-node index, and the pooled per-call scratch — around a built
// or restored covering tree. final must be collectRules(root) in rank
// order; alt is the per-item alternate rule list in rank order.
func assemble(space *hierarchy.Space, root *Node, final, alt []*rules.Rule, generated, nonDominated int) *Recommender {
	r := &Recommender{
		space:      space,
		final:      final,
		matcher:    rules.NewMatcher(final),
		alternates: rules.NewMatcher(alt),
		tree:       root,
		ruleNode:   make(map[*rules.Rule]*Node, len(final)),
		stats: BuildStats{
			RulesGenerated:    generated,
			RulesNonDominated: nonDominated,
			RulesFinal:        len(final),
			ProjectedProfit:   treeProjected(root),
			TreeDepth:         depth(root),
		},
	}
	var index func(*Node)
	index = func(n *Node) {
		r.ruleNode[n.Rule] = n
		for _, c := range n.Children {
			index(c)
		}
	}
	index(root)
	r.ids = make(map[*rules.Rule]string, len(r.ruleNode)+len(alt))
	for rule := range r.ruleNode {
		r.ids[rule] = rules.StableID(space, rule)
	}
	for _, rule := range alt {
		if _, ok := r.ids[rule]; !ok {
			r.ids[rule] = rules.StableID(space, rule)
		}
	}
	numItems := space.Catalog().NumItems()
	r.scratch.New = func() any {
		return &scratch{bestPerItem: make([]*rules.Rule, numItems+1)}
	}
	return r
}

// Restore reassembles a Recommender from a previously built covering
// tree and per-item alternate rules — the deserialization path of model
// persistence (internal/modelio). The tree must be the pruned tree of a
// prior Build over an identically compiled space; Restore recomputes the
// derived structures (matchers, rank order, statistics) but does not
// re-estimate anything.
func Restore(space *hierarchy.Space, root *Node, alternates []*rules.Rule, generated, nonDominated int) (*Recommender, error) {
	if space == nil || root == nil {
		return nil, fmt.Errorf("core: nil space or tree")
	}
	if !root.Rule.IsDefault() {
		return nil, fmt.Errorf("core: restored tree root is not a default rule")
	}
	final := collectRules(root)
	rules.SortByRank(final)
	// The serialized form stores alternates by value, so a rule that is
	// both in the tree and a per-item alternate decodes as two objects.
	// Build shares one pointer for both roles, and Explain's lineage
	// lookup is keyed by pointer — re-alias such alternates to the
	// tree's object so a restored model explains (and re-seals)
	// identically to the model that was saved.
	byID := make(map[string]*rules.Rule, len(final))
	for _, rule := range final {
		byID[rules.StableID(space, rule)] = rule
	}
	for i, rule := range alternates {
		if shared, ok := byID[rules.StableID(space, rule)]; ok {
			alternates[i] = shared
		}
	}
	return assemble(space, root, final, alternates, generated, nonDominated), nil
}

// Alternates returns the per-item alternate rules backing RecommendTopK,
// for persistence. The slice must not be modified. Sealed recommenders
// return nil: their alternates live in the arena's rule table.
func (r *Recommender) Alternates() []*rules.Rule {
	if r.sealed != nil {
		return nil
	}
	var out []*rules.Rule
	r.alternates.MatchAllRules(func(rule *rules.Rule) { out = append(out, rule) })
	return out
}

// MatcherViews exposes the flattened trie layouts of the final-rule
// matcher and the per-item alternates matcher, for model sealing. ok is
// false for sealed recommenders (nothing to re-seal) or when a matcher
// was unsealed by a post-build Insert.
func (r *Recommender) MatcherViews() (main, alt rules.TrieView, ok bool) {
	if r.sealed != nil {
		return rules.TrieView{}, rules.TrieView{}, false
	}
	main, ok1 := r.matcher.TrieView()
	alt, ok2 := r.alternates.TrieView()
	return main, alt, ok1 && ok2
}

func depth(n *Node) int {
	d := 0
	for _, c := range n.Children {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Recommend returns the MPF recommendation for a basket of non-target
// sales: the highest-ranked matching rule's head. The default rule
// guarantees a recommendation for any basket.
//
// The steady-state path is allocation-free: basket expansion merges
// precomputed per-sale ancestor lists into a pooled buffer and the
// matcher walk carries no per-call state.
//
//hot:path
func (r *Recommender) Recommend(basket model.Basket) Recommendation {
	if r.sealed != nil {
		return r.recommendSealed(basket)
	}
	sc := r.getScratch()
	sc.expanded = r.space.ExpandBasketInto(sc.expanded, basket)
	best := r.matcher.Best(sc.expanded)
	rec := r.toRecommendation(best)
	r.putScratch(sc)
	return rec
}

// RecommendTopK returns up to k recommendations for distinct target
// items — the paper's extension for recommending several target items per
// customer (Section 2). The first recommendation is always the plain MPF
// answer (identical to Recommend); further slots are filled with the best
// matching rule of each remaining target item, in rank order, drawn from
// the per-item non-dominated rule sets.
func (r *Recommender) RecommendTopK(basket model.Basket, k int) []Recommendation {
	if k <= 0 {
		return nil
	}
	return r.RecommendTopKInto(nil, basket, k)
}

// RecommendTopKInto is RecommendTopK appending into dst's backing
// storage — the serving hot path passes a pooled slice so a steady-state
// call allocates nothing. The result is identical to RecommendTopK.
//
//hot:path
func (r *Recommender) RecommendTopKInto(dst []Recommendation, basket model.Basket, k int) []Recommendation {
	if r.sealed != nil {
		return r.recommendTopKIntoSealed(dst, basket, k)
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	sc := r.getScratch()
	sc.expanded = r.space.ExpandBasketInto(sc.expanded, basket)
	first := r.matcher.Best(sc.expanded)
	dst = append(dst, r.toRecommendation(first))
	if k == 1 {
		r.putScratch(sc)
		return dst
	}

	// Best matching alternate per remaining target item, in a dense
	// table indexed by item ID. The MPF winner's item is skipped during
	// the scan — filling its slot only to discard it afterwards would
	// waste both the rank comparisons and the table operation.
	firstItem := r.space.ItemOf(first.Head)
	sc.matches = r.alternates.AppendMatches(sc.matches[:0], sc.expanded)
	sc.touched = sc.touched[:0]
	for _, rule := range sc.matches {
		item := r.space.ItemOf(rule.Head)
		if item == firstItem {
			continue
		}
		if cur := sc.bestPerItem[item]; cur == nil {
			sc.bestPerItem[item] = rule
			sc.touched = append(sc.touched, item)
		} else if rules.Outranks(rule, cur) {
			sc.bestPerItem[item] = rule
		}
	}
	sc.rest = sc.rest[:0]
	for _, item := range sc.touched {
		sc.rest = append(sc.rest, sc.bestPerItem[item])
		sc.bestPerItem[item] = nil
	}
	rules.SortRanked(sc.rest)
	for _, rule := range sc.rest {
		dst = append(dst, r.toRecommendation(rule))
		if len(dst) == k {
			break
		}
	}
	r.putScratch(sc)
	return dst
}

func (r *Recommender) toRecommendation(rule *rules.Rule) Recommendation {
	return Recommendation{
		Item:  r.space.ItemOf(rule.Head),
		Promo: r.space.PromoOf(rule.Head),
		Rule:  rule,
		ID:    r.RuleID(rule),
		Idx:   -1,
	}
}

// RuleID returns the rule's stable content-hash identity. Every rule a
// built or restored recommender can serve (tree rules and per-item
// alternates) is precomputed; anything else falls back to hashing.
func (r *Recommender) RuleID(rule *rules.Rule) string {
	if id, ok := r.ids[rule]; ok {
		return id
	}
	if rule == nil || r.space == nil {
		return ""
	}
	return rules.StableID(r.space, rule)
}

// Rules returns the final rules in MPF rank order. The slice must not be
// modified.
func (r *Recommender) Rules() []*rules.Rule { return r.final }

// Stats returns construction statistics.
func (r *Recommender) Stats() BuildStats { return r.stats }

// Space returns the generalized-sale space the recommender operates on.
func (r *Recommender) Space() *hierarchy.Space { return r.space }

// Tree returns the root of the (pruned) covering tree, for inspection and
// explanation. The tree must not be modified.
func (r *Recommender) Tree() *Node { return r.tree }

// Explain renders the recommendation's rationale: the fired rule and its
// covering-tree lineage up to the default rule. The node is found by one
// index lookup; rules outside the tree (per-item alternates from
// RecommendTopK) explain without a lineage, exactly as before.
func (r *Recommender) Explain(rec Recommendation) []string {
	if r.sealed != nil {
		return r.explainSealed(rec)
	}
	node := r.ruleNode[rec.Rule]

	var out []string
	out = append(out, fmt.Sprintf("recommend %s [rule %s]: fired %s",
		r.space.Name(r.space.PromoNode(rec.Promo)), r.RuleID(rec.Rule), rec.Rule.String(r.space)))
	for n := node; n != nil && n.Parent != nil; n = n.Parent {
		out = append(out, fmt.Sprintf("  fallback: %s", n.Parent.Rule.String(r.space)))
	}
	return out
}
