package core

import (
	"fmt"

	"profitmining/internal/hierarchy"
	"profitmining/internal/mining"
	"profitmining/internal/model"
	"profitmining/internal/par"
	"profitmining/internal/rules"
)

// TreeDelta maintains the covering-tree stage of Build across window
// slides: cover assignment, profit projection and cut-optimal pruning.
// Where Build recomputes everything, Update re-derives only what a slide
// could have changed, and the result is byte-identical to Build over the
// same window.
//
// The repair relies on the rule-identity contract of mining.Stream: a
// rule re-emitted as the same pointer has identical body, head,
// statistics and order, so the MPF rank order among surviving pointers
// cannot change between slides. Consequences:
//
//   - A transaction's best (covering) rule is unchanged unless its old
//     best was removed or a newly appeared rule matches the basket. Only
//     those transactions — plus the entering ones — are re-matched.
//
//   - A node whose cover kept exactly the same transactions (no member
//     marked dirty) has the same projected profit: the evaluator's float
//     loop runs over the same transactions in the same order, so the
//     cached value is bit-equal to a recomputation.
//
//   - A subtree whose every node is clean and whose shape (child rule
//     pointers, in order) is unchanged reproduces last slide's
//     merged-cover leaf evaluation, so the pruning DP reuses it; the DP
//     itself re-runs everywhere, but its float evaluations — the actual
//     cost — are skipped on clean subtrees.
//
// The skeleton (parents and children) is rebuilt every slide: it is
// O(rules) pointer work, determined purely by the rank order of the kept
// rules, and rebuilding it keeps the collapse mutations of the pruning
// DP from leaking across slides.
//
// A TreeDelta is not safe for concurrent use.
type TreeDelta struct {
	space   *hierarchy.Space
	cfg     Config
	workers int

	prevLen int           // window length at the previous Update
	best    []*rules.Rule // best (covering) rule per window transaction

	prevKept     map[*rules.Rule]bool
	projCache    map[*rules.Rule]float64       // own-cover projection, pre-prune
	leafCache    map[*rules.Rule]float64       // merged-cover leaf evaluation
	prevChildren map[*rules.Rule][]*rules.Rule // pre-prune child pointers, in order
}

// NewTreeDelta prepares an empty delta state; the first Update (with
// evicted = 0 against an empty previous window) performs a full build.
func NewTreeDelta(space *hierarchy.Space, cfg Config) (*TreeDelta, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return &TreeDelta{
		space:        space,
		cfg:          cfg,
		workers:      par.Workers(cfg.Parallelism),
		prevKept:     map[*rules.Rule]bool{},
		projCache:    map[*rules.Rule]float64{},
		leafCache:    map[*rules.Rule]float64{},
		prevChildren: map[*rules.Rule][]*rules.Rule{},
	}, nil
}

// Update rebuilds the recommender for the current window. txns is the
// full window after the slide (oldest first), expanded its per-txn
// basket expansions (mining.Stream.ExpandedBodies), mined the stream's
// latest result, and evicted how many transactions left the front of the
// window since the previous Update.
func (d *TreeDelta) Update(txns []model.Transaction, expanded [][]hierarchy.GenID, mined *mining.Result, evicted int) (*Recommender, error) {
	if mined == nil || mined.Default == nil {
		return nil, fmt.Errorf("core: nil mining result")
	}
	if len(expanded) != len(txns) {
		return nil, fmt.Errorf("core: %d expansions for %d transactions", len(expanded), len(txns))
	}
	if evicted < 0 || evicted > d.prevLen {
		return nil, fmt.Errorf("core: evicted %d outside previous window of %d", evicted, d.prevLen)
	}
	nOld := d.prevLen - evicted
	if len(txns) < nOld {
		return nil, fmt.Errorf("core: window of %d cannot hold %d surviving transactions", len(txns), nOld)
	}

	all := mined.AllRules()
	filtered := all
	if d.cfg.MinInterest > 1 {
		filtered = rules.FilterInteresting(d.space, all, d.cfg.MinInterest)
	}
	kept, alt := rules.NonDominated(d.space, all, filtered)

	keptSet := make(map[*rules.Rule]bool, len(kept))
	var added []*rules.Rule
	for _, r := range kept {
		keptSet[r] = true
		if !d.prevKept[r] {
			added = append(added, r)
		}
	}
	removed := make(map[*rules.Rule]bool)
	for r := range d.prevKept {
		if !keptSet[r] {
			removed[r] = true
		}
	}

	// Re-match only transactions whose winner could have changed: the
	// old best disappeared, a new rule matches, or the transaction just
	// entered. Each worker writes only its own slots; removed and the
	// sealed matchers are read-only here.
	dirty := make(map[*rules.Rule]bool)
	for i := 0; i < evicted; i++ {
		dirty[d.best[i]] = true
	}
	survivors := d.best[evicted:]
	matcher := rules.NewMatcher(kept)
	var addm *rules.Matcher
	if len(added) > 0 {
		addm = rules.NewMatcher(added)
	}
	newBest := make([]*rules.Rule, len(txns))
	par.For(d.workers, len(txns), func(i int) {
		if i >= nOld {
			newBest[i] = matcher.Best(expanded[i])
			return
		}
		r := survivors[i]
		if removed[r] || (addm != nil && addm.Any(expanded[i])) {
			newBest[i] = matcher.Best(expanded[i])
		} else {
			newBest[i] = r
		}
	})
	for i, r := range newBest {
		if i >= nOld {
			dirty[r] = true
			continue
		}
		if r != survivors[i] {
			dirty[survivors[i]] = true
			dirty[r] = true
		}
	}

	// Fresh skeleton, covers rebuilt by one ascending pass — the same
	// ascending-index sequence the batch sharded assignment commits.
	root, ruleNode := buildSkeleton(d.space, kept)
	for i, r := range newBest {
		n := ruleNode[r]
		n.Cover = append(n.Cover, int32(i))
	}

	eval := &pessimisticEvaluator{
		space:    d.space,
		txns:     txns,
		cf:       d.cfg.CF,
		binary:   d.cfg.BinaryProfit,
		quantity: d.cfg.Quantity,
	}

	// Own-cover projections: clean nodes reuse the cached value, dirty
	// ones fan out over the pool exactly like projectTree.
	var nodes, dirtyNodes []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, n := range nodes {
		if !dirty[n.Rule] {
			if v, ok := d.projCache[n.Rule]; ok {
				n.Projected = v
				continue
			}
		}
		dirtyNodes = append(dirtyNodes, n)
	}
	par.For(d.workers, len(dirtyNodes), func(i int) {
		n := dirtyNodes[i]
		n.Projected = eval.Projected(n.Rule, n.Cover)
	})

	// Snapshot the pre-prune state for the next slide before the DP
	// mutates the tree.
	newProj := make(map[*rules.Rule]float64, len(nodes))
	newChildren := make(map[*rules.Rule][]*rules.Rule, len(nodes))
	for _, n := range nodes {
		newProj[n.Rule] = n.Projected
		crs := make([]*rules.Rule, len(n.Children))
		for i, c := range n.Children {
			crs[i] = c.Rule
		}
		newChildren[n.Rule] = crs
	}

	newLeaf := make(map[*rules.Rule]float64)
	if d.cfg.Prune == PruneCutOptimal {
		d.pruneCached(root, eval, dirty, newChildren, newLeaf)
	}

	final := collectRules(root)
	rules.SortByRank(final)
	rec := assemble(d.space, root, final, alt, len(all), len(kept))

	d.prevLen = len(txns)
	d.best = newBest
	d.prevKept = keptSet
	d.projCache = newProj
	d.leafCache = newLeaf
	d.prevChildren = newChildren
	return rec, nil
}

// pruneCached is pruneCutOptimal with memoized merged-cover evaluations.
// It returns the subtree's merged cover, its best projected profit, and
// whether the whole subtree is clean: every node kept since last slide
// with an unchanged cover and unchanged children. A clean internal
// node's leaf evaluation runs over the same transactions in the same
// order as last slide's, so the cached value is reused; the integer
// cover merging always runs (the indices shift with the window even when
// the covers are clean).
func (d *TreeDelta) pruneCached(n *Node, eval CoverEvaluator, dirty map[*rules.Rule]bool, curChildren map[*rules.Rule][]*rules.Rule, newLeaf map[*rules.Rule]float64) (cover []int32, best float64, clean bool) {
	prevCh, wasKept := d.prevChildren[n.Rule]
	selfClean := wasKept && !dirty[n.Rule] && sameRuleList(prevCh, curChildren[n.Rule])

	if len(n.Children) == 0 {
		return n.Cover, n.Projected, selfClean
	}

	treeProf := n.Projected
	merged := n.Cover
	copied := false
	clean = selfClean
	for _, c := range n.Children {
		childCover, childBest, childClean := d.pruneCached(c, eval, dirty, curChildren, newLeaf)
		treeProf += childBest
		if !childClean {
			clean = false
		}
		if !copied {
			merged = append([]int32(nil), merged...)
			copied = true
		}
		merged = append(merged, childCover...)
	}

	leafProf, cached := 0.0, false
	if clean {
		leafProf, cached = d.leafCache[n.Rule]
	}
	if !cached {
		leafProf = eval.Projected(n.Rule, merged)
	}
	newLeaf[n.Rule] = leafProf

	if leafProf >= treeProf {
		n.Children = nil
		n.Cover = merged
		n.Projected = leafProf
		return merged, leafProf, clean
	}
	return merged, treeProf, clean
}

func sameRuleList(a, b []*rules.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
