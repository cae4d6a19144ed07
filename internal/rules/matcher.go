package rules

import (
	"slices"
	"sort"

	"profitmining/internal/hierarchy"
)

// Matcher is a prefix trie over rule bodies that answers subset queries:
// given a sorted set of generalized sales, find every rule whose body is
// contained in it. It serves two jobs:
//
//   - recommendation matching — a rule matches a basket iff its body is a
//     subset of the basket's expansion;
//   - generality queries — rule p is more general than rule r iff
//     body(p) ⊆ ExpandBody(body(r)), so "find all rules more general
//     than r" is the same subset query over r's body expansion. This is
//     what makes dominated-rule removal and covering-tree construction
//     near-linear instead of quadratic in the rule count.
//
// Matchers are built incrementally with Insert; several rules may share a
// body.
//
// A matcher built in one shot by NewMatcher over a non-empty rule list is
// sealed: the pointer trie is flattened into contiguous arrays (one child
// block per node, children adjacent in memory) and queries walk the flat
// form, which is measurably faster on the serving hot path because a
// subset walk touches sibling runs sequentially instead of chasing one
// heap pointer per node. Insert after sealing falls back to the pointer
// trie transparently. Sealed or not, a Matcher is safe for concurrent
// reads once construction is done.
type Matcher struct {
	root     matchNode
	defaults []*Rule // empty-body rules match everything
	flat     *flatTrie
}

type matchNode struct {
	item     hierarchy.GenID
	children []*matchNode
	rules    []*Rule
}

// flatTrie is the sealed, cache-friendly form of the trie: node i's
// children occupy nodes [childLo[i], childHi[i]) and its rules occupy
// rules[ruleLo[i]:ruleHi[i]]. The root's children are [0, rootHi).
// Sibling blocks are contiguous and sorted by item, so the two-pointer
// subset walk streams through memory.
type flatTrie struct {
	item    []hierarchy.GenID
	childLo []int32
	childHi []int32
	ruleLo  []int32
	ruleHi  []int32
	rules   []*Rule
	rootHi  int32
}

// NewMatcher builds a matcher over the given rules and seals it.
func NewMatcher(rs []*Rule) *Matcher {
	m := &Matcher{}
	for _, r := range rs {
		m.Insert(r)
	}
	m.seal()
	return m
}

// Insert adds a rule to the matcher. Inserting into a sealed matcher
// unseals it: subsequent queries walk the pointer trie.
func (m *Matcher) Insert(r *Rule) {
	m.flat = nil
	if len(r.Body) == 0 {
		m.defaults = append(m.defaults, r)
		return
	}
	node := &m.root
	for _, g := range r.Body {
		node = node.child(g)
	}
	node.rules = append(node.rules, r)
}

// seal flattens the pointer trie into the contiguous-array form. Nodes
// are laid out in BFS order, which places every sibling block — the unit
// the subset walk scans — in one contiguous run.
func (m *Matcher) seal() {
	f := &flatTrie{}
	nodes := append([]*matchNode(nil), m.root.children...)
	f.rootHi = int32(len(nodes))
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		f.item = append(f.item, n.item)
		f.ruleLo = append(f.ruleLo, int32(len(f.rules)))
		f.rules = append(f.rules, n.rules...)
		f.ruleHi = append(f.ruleHi, int32(len(f.rules)))
		f.childLo = append(f.childLo, int32(len(nodes)))
		nodes = append(nodes, n.children...)
		f.childHi = append(f.childHi, int32(len(nodes)))
	}
	m.flat = f
}

// TrieView is a read-only view of a sealed matcher's flattened trie —
// the exact arrays the subset walks run over, exposed so model sealing
// can persist them verbatim. Slices must not be modified.
type TrieView struct {
	Item                             []hierarchy.GenID
	ChildLo, ChildHi, RuleLo, RuleHi []int32
	Rules                            []*Rule
	RootHi                           int32
	Defaults                         []*Rule
}

// TrieView returns the flattened layout of a sealed matcher. The second
// result is false when the matcher has been unsealed by a post-build
// Insert (no flat form exists to persist).
func (m *Matcher) TrieView() (TrieView, bool) {
	f := m.flat
	if f == nil {
		return TrieView{}, false
	}
	return TrieView{
		Item:     f.item,
		ChildLo:  f.childLo,
		ChildHi:  f.childHi,
		RuleLo:   f.ruleLo,
		RuleHi:   f.ruleHi,
		Rules:    f.rules,
		RootHi:   f.rootHi,
		Defaults: m.defaults,
	}, true
}

// child returns the child for item g, creating it in sorted position.
func (n *matchNode) child(g hierarchy.GenID) *matchNode {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].item >= g })
	if i < len(n.children) && n.children[i].item == g {
		return n.children[i]
	}
	c := &matchNode{item: g}
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	return c
}

// MatchAll calls fn for every rule whose body is a subset of the sorted
// set xs, including default rules.
func (m *Matcher) MatchAll(xs []hierarchy.GenID, fn func(*Rule)) {
	for _, r := range m.defaults {
		fn(r)
	}
	if f := m.flat; f != nil {
		f.matchWalk(0, f.rootHi, xs, fn)
		return
	}
	matchWalk(m.root.children, xs, fn)
}

func matchWalk(nodes []*matchNode, xs []hierarchy.GenID, fn func(*Rule)) {
	ni, xi := 0, 0
	for ni < len(nodes) && xi < len(xs) {
		switch {
		case nodes[ni].item < xs[xi]:
			ni++
		case nodes[ni].item > xs[xi]:
			xi++
		default:
			node := nodes[ni]
			for _, r := range node.rules {
				fn(r)
			}
			if len(node.children) > 0 {
				matchWalk(node.children, xs[xi+1:], fn)
			}
			ni++
			xi++
		}
	}
}

func (f *flatTrie) matchWalk(lo, hi int32, xs []hierarchy.GenID, fn func(*Rule)) {
	ni, xi := lo, 0
	for ni < hi && xi < len(xs) {
		switch {
		case f.item[ni] < xs[xi]:
			ni++
		case f.item[ni] > xs[xi]:
			xi++
		default:
			for ri := f.ruleLo[ni]; ri < f.ruleHi[ni]; ri++ {
				fn(f.rules[ri])
			}
			if f.childLo[ni] < f.childHi[ni] {
				f.matchWalk(f.childLo[ni], f.childHi[ni], xs[xi+1:], fn)
			}
			ni++
			xi++
		}
	}
}

// AppendMatches appends every rule whose body is a subset of xs
// (including default rules) to dst and returns it. It is MatchAll
// without the callback: the serving hot path collects matches into a
// pooled buffer, and a closure-free walk keeps the per-request
// allocation count at zero.
//
//hot:path
func (m *Matcher) AppendMatches(dst []*Rule, xs []hierarchy.GenID) []*Rule {
	dst = append(dst, m.defaults...)
	if f := m.flat; f != nil {
		return f.appendWalk(0, f.rootHi, xs, dst)
	}
	return appendWalk(m.root.children, xs, dst)
}

func appendWalk(nodes []*matchNode, xs []hierarchy.GenID, dst []*Rule) []*Rule {
	ni, xi := 0, 0
	for ni < len(nodes) && xi < len(xs) {
		switch {
		case nodes[ni].item < xs[xi]:
			ni++
		case nodes[ni].item > xs[xi]:
			xi++
		default:
			node := nodes[ni]
			dst = append(dst, node.rules...)
			if len(node.children) > 0 {
				dst = appendWalk(node.children, xs[xi+1:], dst)
			}
			ni++
			xi++
		}
	}
	return dst
}

func (f *flatTrie) appendWalk(lo, hi int32, xs []hierarchy.GenID, dst []*Rule) []*Rule {
	ni, xi := lo, 0
	for ni < hi && xi < len(xs) {
		switch {
		case f.item[ni] < xs[xi]:
			ni++
		case f.item[ni] > xs[xi]:
			xi++
		default:
			dst = append(dst, f.rules[f.ruleLo[ni]:f.ruleHi[ni]]...)
			if f.childLo[ni] < f.childHi[ni] {
				dst = f.appendWalk(f.childLo[ni], f.childHi[ni], xs[xi+1:], dst)
			}
			ni++
			xi++
		}
	}
	return dst
}

// Best returns the highest-ranked rule whose body is a subset of xs, or
// nil if none matches. The walk is closure-free: Best is the per-request
// inner loop of Recommend, and a captured best-so-far variable would
// escape to the heap on every call.
//
//hot:path
func (m *Matcher) Best(xs []hierarchy.GenID) *Rule {
	var best *Rule
	for _, r := range m.defaults {
		if best == nil || Outranks(r, best) {
			best = r
		}
	}
	if f := m.flat; f != nil {
		return f.bestWalk(0, f.rootHi, xs, best)
	}
	return bestWalk(m.root.children, xs, best)
}

func bestWalk(nodes []*matchNode, xs []hierarchy.GenID, best *Rule) *Rule {
	ni, xi := 0, 0
	for ni < len(nodes) && xi < len(xs) {
		switch {
		case nodes[ni].item < xs[xi]:
			ni++
		case nodes[ni].item > xs[xi]:
			xi++
		default:
			node := nodes[ni]
			for _, r := range node.rules {
				if best == nil || Outranks(r, best) {
					best = r
				}
			}
			if len(node.children) > 0 {
				best = bestWalk(node.children, xs[xi+1:], best)
			}
			ni++
			xi++
		}
	}
	return best
}

func (f *flatTrie) bestWalk(lo, hi int32, xs []hierarchy.GenID, best *Rule) *Rule {
	ni, xi := lo, 0
	for ni < hi && xi < len(xs) {
		switch {
		case f.item[ni] < xs[xi]:
			ni++
		case f.item[ni] > xs[xi]:
			xi++
		default:
			for ri := f.ruleLo[ni]; ri < f.ruleHi[ni]; ri++ {
				if r := f.rules[ri]; best == nil || Outranks(r, best) {
					best = r
				}
			}
			if f.childLo[ni] < f.childHi[ni] {
				best = f.bestWalk(f.childLo[ni], f.childHi[ni], xs[xi+1:], best)
			}
			ni++
			xi++
		}
	}
	return best
}

// MatchAllRules calls fn for every rule in the matcher, in trie order.
func (m *Matcher) MatchAllRules(fn func(*Rule)) {
	for _, r := range m.defaults {
		fn(r)
	}
	var walk func(nodes []*matchNode)
	walk = func(nodes []*matchNode) {
		for _, n := range nodes {
			for _, r := range n.rules {
				fn(r)
			}
			walk(n.children)
		}
	}
	walk(m.root.children)
}

// Any reports whether any rule's body is a subset of xs. It is cheaper
// than MatchAll because it can stop at the first hit.
func (m *Matcher) Any(xs []hierarchy.GenID) bool {
	if len(m.defaults) > 0 {
		return true
	}
	if f := m.flat; f != nil {
		return f.anyWalk(0, f.rootHi, xs)
	}
	return anyWalk(m.root.children, xs)
}

func anyWalk(nodes []*matchNode, xs []hierarchy.GenID) bool {
	ni, xi := 0, 0
	for ni < len(nodes) && xi < len(xs) {
		switch {
		case nodes[ni].item < xs[xi]:
			ni++
		case nodes[ni].item > xs[xi]:
			xi++
		default:
			node := nodes[ni]
			if len(node.rules) > 0 {
				return true
			}
			if len(node.children) > 0 && anyWalk(node.children, xs[xi+1:]) {
				return true
			}
			ni++
			xi++
		}
	}
	return false
}

func (f *flatTrie) anyWalk(lo, hi int32, xs []hierarchy.GenID) bool {
	ni, xi := lo, 0
	for ni < hi && xi < len(xs) {
		switch {
		case f.item[ni] < xs[xi]:
			ni++
		case f.item[ni] > xs[xi]:
			xi++
		default:
			if f.ruleLo[ni] < f.ruleHi[ni] {
				return true
			}
			if f.childLo[ni] < f.childHi[ni] && f.anyWalk(f.childLo[ni], f.childHi[ni], xs[xi+1:]) {
				return true
			}
			ni++
			xi++
		}
	}
	return false
}

// ExpandBody returns the sorted set of generalized sales that can appear
// in the body of a rule more general than one with the given body: the
// body's elements and all their strict ancestors, excluding the root
// (whose rules are default rules, handled separately).
func ExpandBody(s *hierarchy.Space, body []hierarchy.GenID) []hierarchy.GenID {
	return AppendExpandBody(s, body, nil)
}

// AppendExpandBody is ExpandBody reusing buf's backing storage — the
// domination and covering-tree passes call it once per mined rule, so
// avoiding an allocation each time matters at low minimum supports.
func AppendExpandBody(s *hierarchy.Space, body []hierarchy.GenID, buf []hierarchy.GenID) []hierarchy.GenID {
	out := buf[:0]
	for _, g := range body {
		out = append(out, g)
		for _, a := range s.Ancestors(g) {
			if s.Kind(a) != hierarchy.KindRoot {
				out = append(out, a)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
