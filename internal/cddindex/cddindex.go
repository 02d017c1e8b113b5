// Package cddindex implements the CDD-index I_j of Section 5.1: for each
// dependent attribute A_j, rules of the form X_f → A_j are organized in a
// lattice of determinant signatures. Given an incomplete tuple, a group
// whose determinants the tuple is missing is skipped whole; inside a usable
// group every rule, in insertion order, is checked exactly with AppliesTo.
//
// Section 5.1 also keeps an aggregate R-tree per group over the rules'
// pivot-converted constants. It is not built: checking every rule of a
// usable group is cheaper than the per-group conversions the tree needed.
package cddindex

import (
	"fmt"
	"sort"
	"strings"

	"terids/internal/pivot"
	"terids/internal/rules"
	"terids/internal/tuple"
)

// group is one lattice node: all rules sharing a determinant signature
// (the ordered list of (attr, kind) pairs).
type group struct {
	sig   string
	attrs []int // determinant attributes, ascending
	rules []*rules.Rule
}

// Index is the CDD-index for one dependent attribute.
type Index struct {
	groups []*group // in signature order
	nRules int
}

// Build indexes all rules with dependent attribute dep from set. The pivot
// selection is not used; the parameter is kept for benchmark/ until the
// next benchmark PR.
func Build(set *rules.Set, dep int, _ *pivot.Selection) (*Index, error) {
	if dep < 0 || dep >= set.D() {
		return nil, fmt.Errorf("cddindex: dependent %d out of range [0,%d)", dep, set.D())
	}
	ix := &Index{}
	bySig := make(map[string]*group)
	for _, r := range set.ForDependent(dep) {
		sig, attrs := signature(r)
		g, ok := bySig[sig]
		if !ok {
			g = &group{sig: sig, attrs: attrs}
			bySig[sig] = g
			ix.groups = append(ix.groups, g)
		}
		g.rules = append(g.rules, r)
		ix.nRules++
	}
	sort.Slice(ix.groups, func(a, b int) bool { return ix.groups[a].sig < ix.groups[b].sig })
	return ix, nil
}

// signature builds the lattice key of a rule's determinant set and the
// determinant attributes in ascending order.
func signature(r *rules.Rule) (string, []int) {
	dets := append([]rules.Constraint(nil), r.Determinants...)
	sort.Slice(dets, func(i, j int) bool { return dets[i].Attr < dets[j].Attr })
	var b strings.Builder
	attrs := make([]int, len(dets))
	for i, c := range dets {
		kind := "i"
		if c.Kind == rules.Const {
			kind = "c"
		}
		fmt.Fprintf(&b, "%s%d|", kind, c.Attr)
		attrs[i] = c.Attr
	}
	return b.String(), attrs
}

// Len returns the number of indexed rules.
func (ix *Index) Len() int { return ix.nRules }

// Groups returns the number of lattice nodes.
func (ix *Index) Groups() int { return len(ix.groups) }

// QueryStats reports the work of one Applicable call.
type QueryStats struct {
	GroupsVisited int
	GroupsSkipped int
	Verified      int
}

// Applicable streams the rules usable to impute r's missing dependent
// attribute: groups whose determinant attributes include a missing one are
// skipped outright; every rule of a usable group is checked with
// AppliesTo. Returning false from visit stops the scan.
func (ix *Index) Applicable(r *tuple.Record, visit func(*rules.Rule) bool) QueryStats {
	var stats QueryStats
	for _, g := range ix.groups {
		if !usable(g, r) {
			stats.GroupsSkipped++
			continue
		}
		stats.GroupsVisited++
		for _, rule := range g.rules {
			stats.Verified++
			if rule.AppliesTo(r) && !visit(rule) {
				return stats
			}
		}
	}
	return stats
}

func usable(g *group, r *tuple.Record) bool {
	for _, attr := range g.attrs {
		if r.IsMissing(attr) {
			return false
		}
	}
	return true
}
