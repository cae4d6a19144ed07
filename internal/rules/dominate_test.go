package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"profitmining/internal/hierarchy"
	"profitmining/internal/model"
)

// RemoveDominated is the single-set domination pass that NonDominated
// replaced in model building, kept as the test oracle: it drops every
// rule of rs that some higher-ranked rule of rs generalizes and returns
// the survivors in rank order.
func RemoveDominated(s *hierarchy.Space, rs []*Rule) []*Rule {
	ranked := append([]*Rule(nil), rs...)
	SortByRank(ranked)
	kept := make([]*Rule, 0, len(ranked))
	m := NewMatcher(nil)
	var buf []hierarchy.GenID
	for _, r := range ranked {
		buf = AppendExpandBody(s, r.Body, buf)
		if m.Any(buf) {
			continue
		}
		kept = append(kept, r)
		m.Insert(r)
	}
	return kept
}

// oracleNonDominated is what model building computed before the single
// pass: RemoveDominated over filtered for the cut, and RemoveDominated
// within each target item's rules of all for the alternates, re-sorted
// into rank order.
func oracleNonDominated(s *hierarchy.Space, all, filtered []*Rule) (kept, alt []*Rule) {
	kept = RemoveDominated(s, filtered)
	byItem := map[model.ItemID][]*Rule{}
	for _, r := range all {
		item := s.ItemOf(r.Head)
		byItem[item] = append(byItem[item], r)
	}
	for _, group := range byItem {
		alt = append(alt, RemoveDominated(s, group)...)
	}
	slices.SortFunc(alt, CompareRank)
	return kept, alt
}

// richSpace is a space with several promotions per item, two concept
// levels over the non-target items, and three target items with one to
// three promotions each, so random rules share bodies, heads and items.
type richSpace struct {
	s     *hierarchy.Space
	nodes []hierarchy.GenID // non-root, non-target body candidates
	heads []hierarchy.GenID // target promo nodes
}

func newRichSpace(t testing.TB) *richSpace {
	t.Helper()
	cat := model.NewCatalog()
	hb := hierarchy.NewBuilder(cat)
	hb.AddConcept("Food")
	hb.AddConcept("Snacks", "Food")
	hb.AddConcept("Drinks", "Food")
	for i, place := range []string{"Snacks", "Snacks", "Drinks", "Drinks", "Food"} {
		item := cat.AddItem(fmt.Sprintf("N%d", i), false)
		for p := 0; p <= i%3; p++ {
			cat.AddPromo(item, float64(1+p), 0.5, 1)
		}
		hb.PlaceItem(item, place)
	}
	var targets []model.PromoID
	for i := 0; i < 3; i++ {
		item := cat.AddItem(fmt.Sprintf("T%d", i), true)
		for p := 0; p <= i; p++ {
			targets = append(targets, cat.AddPromo(item, float64(5+p), 3, 1))
		}
	}
	s, err := hb.Compile(hierarchy.Options{MOA: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := &richSpace{s: s}
	for g := 0; g < s.NumNodes(); g++ {
		id := hierarchy.GenID(g)
		if s.Kind(id) == hierarchy.KindRoot {
			continue
		}
		if item := s.ItemOf(id); item != 0 && cat.Item(item).Target {
			continue
		}
		rs.nodes = append(rs.nodes, id)
	}
	for _, p := range targets {
		rs.heads = append(rs.heads, s.PromoNode(p))
	}
	return rs
}

// randomAntichain draws a sorted body with no two comparable elements.
func (rs *richSpace) randomAntichain(rng *rand.Rand) []hierarchy.GenID {
	var body []hierarchy.GenID
	for _, g := range rs.nodes {
		if rng.Float64() >= 0.15 {
			continue
		}
		ok := true
		for _, h := range body {
			if rs.s.Comparable(g, h) {
				ok = false
				break
			}
		}
		if ok {
			body = append(body, g)
		}
	}
	slices.Sort(body)
	return body
}

// randomRules draws a rule set with exact Prof_re ties (small integer
// profits over a few body counts), shared bodies, several promotions per
// target item, unique but shuffled generation orders and, usually, one
// default rule.
func (rs *richSpace) randomRules(rng *rand.Rand) []*Rule {
	n := 2 + rng.Intn(60)
	orders := rng.Perm(n + 1)
	var out []*Rule
	for i := 0; i < n; i++ {
		var body []hierarchy.GenID
		if len(out) > 0 && rng.Float64() < 0.3 {
			body = append(body, out[rng.Intn(len(out))].Body...)
		} else {
			body = rs.randomAntichain(rng)
		}
		if len(body) == 0 {
			body = []hierarchy.GenID{rs.nodes[rng.Intn(len(rs.nodes))]}
		}
		bc := []int{1, 2, 4}[rng.Intn(3)]
		out = append(out, &Rule{
			Body:      body,
			Head:      rs.heads[rng.Intn(len(rs.heads))],
			BodyCount: bc,
			HitCount:  rng.Intn(bc + 1),
			Profit:    float64(rng.Intn(9)),
			Order:     orders[i],
		})
	}
	if rng.Float64() < 0.7 {
		out = append(out, &Rule{
			Head:      rs.heads[rng.Intn(len(rs.heads))],
			BodyCount: 8,
			HitCount:  rng.Intn(9),
			Profit:    float64(rng.Intn(17)),
			Order:     orders[n],
		})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sameRules(t *testing.T, what string, got, want []*Rule) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rules, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rule %d is order %d, want order %d", what, i, got[i].Order, want[i].Order)
		}
	}
}

// TestNonDominatedMatchesOracle: the single pass returns exactly the old
// two-pass result — the cut candidates and the per-item alternates, each
// in rank order — with and without an interest filter in front of it.
// The last filter keeps a random half of the rules: NonDominated accepts
// any subset, and for an arbitrary one a rule's per-item dominator is
// often not a candidate.
func TestNonDominatedMatchesOracle(t *testing.T) {
	rs := newRichSpace(t)
	rng := rand.New(rand.NewSource(14))
	interest := func(r float64) func([]*Rule) []*Rule {
		return func(all []*Rule) []*Rule { return FilterInteresting(rs.s, all, r) }
	}
	filters := []struct {
		name string
		keep func([]*Rule) []*Rule
	}{
		{"unfiltered", func(all []*Rule) []*Rule { return all }},
		{"MinInterest 1.1", interest(1.1)},
		{"MinInterest 1.5", interest(1.5)},
		{"MinInterest 3", interest(3)},
		{"random half", func(all []*Rule) []*Rule {
			var half []*Rule
			for _, r := range all {
				if rng.Intn(2) == 0 {
					half = append(half, r)
				}
			}
			return half
		}},
	}
	var interestDropped int
	for trial := 0; trial < 1500; trial++ {
		all := rs.randomRules(rng)
		for _, f := range filters {
			filtered := f.keep(all)
			if strings.HasPrefix(f.name, "MinInterest") {
				interestDropped += len(all) - len(filtered)
			}
			kept, alt := NonDominated(rs.s, all, filtered)
			wantKept, wantAlt := oracleNonDominated(rs.s, all, filtered)
			what := fmt.Sprintf("trial %d, %s", trial, f.name)
			sameRules(t, what+" kept", kept, wantKept)
			sameRules(t, what+" alternates", alt, wantAlt)
		}
	}
	if interestDropped == 0 {
		t.Fatal("the interest filter never removed a rule; the MinInterest > 1 path went untested")
	}
}

// TestSortByRankMatchesCompareRank: the precomputed-key sort orders rules
// exactly as the reference comparator, ties on every key but Order
// included.
func TestSortByRankMatchesCompareRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		orders := rng.Perm(n)
		rs := make([]*Rule, n)
		for i := range rs {
			rs[i] = &Rule{
				Body:      make([]hierarchy.GenID, rng.Intn(3)),
				BodyCount: []int{1, 2, 4}[rng.Intn(3)],
				HitCount:  rng.Intn(3),
				Profit:    float64(rng.Intn(5) - 1),
				Order:     orders[i],
			}
		}
		got := append([]*Rule(nil), rs...)
		SortByRank(got)
		want := append([]*Rule(nil), rs...)
		slices.SortFunc(want, CompareRank)
		sameRules(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestAppendExpandBodyMatchesNaive: the expansion is the sorted, duplicate
// free set of the body's elements and their non-root ancestors, whatever
// the body's order and whatever the reused buffer held.
func TestAppendExpandBodyMatchesNaive(t *testing.T) {
	rs := newRichSpace(t)
	rng := rand.New(rand.NewSource(3))
	var buf []hierarchy.GenID
	for trial := 0; trial < 2000; trial++ {
		body := make([]hierarchy.GenID, rng.Intn(6))
		for i := range body {
			body[i] = rs.nodes[rng.Intn(len(rs.nodes))]
		}
		set := map[hierarchy.GenID]bool{}
		for _, g := range body {
			set[g] = true
			for _, a := range rs.s.Ancestors(g) {
				if rs.s.Kind(a) != hierarchy.KindRoot {
					set[a] = true
				}
			}
		}
		var want []hierarchy.GenID
		for g := range set {
			want = append(want, g)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		buf = AppendExpandBody(rs.s, body, buf)
		if !slices.Equal(buf, want) {
			t.Fatalf("trial %d: body %v expands to %v, want %v", trial, body, buf, want)
		}
	}
}
