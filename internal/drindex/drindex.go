// Package drindex implements the DR-index I_R of Section 5.1: given an
// incomplete tuple and CDD rules that apply to it, retrieve the repository
// samples satisfying each rule's determinant constraints (the sample-side
// check of Definition 3).
//
// Section 5.1 builds I_R as an aggregate R-tree over pivot-converted
// coordinates. On this repository's data that tree pruned under 1 % of its
// nodes, so the index is the repository itself, scanned once per call in
// repo.Samples() order; samples added by the dynamic extension of Section
// 5.5 are seen because they are appended there.
package drindex

import (
	"fmt"

	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Index is the DR-index I_R.
type Index struct {
	repo *repository.Repository
}

// Build returns the index over repo after checking that sel covers its
// schema. The keyword set is not used; the parameter is kept for
// benchmark/ until the next benchmark PR.
func Build(repo *repository.Repository, sel *pivot.Selection, _ tokens.Set) (*Index, error) {
	if d := repo.Schema().D(); len(sel.PerAttr) != d {
		return nil, fmt.Errorf("drindex: selection has %d attributes, schema %d", len(sel.PerAttr), d)
	}
	return &Index{repo: repo}, nil
}

// Len returns the number of indexed samples.
func (ix *Index) Len() int { return ix.repo.Len() }

// QueryStats reports index work per MatchingSamples call. NodesVisited and
// NodesPruned always read 0 now that there is no tree; they are kept for
// benchmark/ until the next benchmark PR.
type QueryStats struct {
	NodesVisited int
	NodesPruned  int
	Verified     int
	Matched      int
}

// MatchingSamples streams the repository samples satisfying rule's
// determinant constraints with respect to r. Returning false from visit
// stops the scan. The caller must have checked rule.AppliesTo(r).
func (ix *Index) MatchingSamples(r *tuple.Record, rule *rules.Rule, visit func(*tuple.Record) bool) QueryStats {
	return ix.MatchingSamplesMulti(r, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
		return visit(s)
	})
}

// stackAttrs is the schema width up to which a call keeps its distance
// cache on the stack.
const stackAttrs = 16

// MatchingSamplesMulti retrieves, in one scan of the repository, the samples
// matching each of several rules with respect to r. Per sample, the Jaccard
// distance dist(r[A_x], s[A_x]) is computed at most once per attribute and
// every rule is checked against the cached distances: a constant constraint
// that survived AppliesTo(r) pins the value to r's, i.e. distance exactly 0;
// an interval constraint requires the distance in [Min, Max]. visit receives
// the rule's index in rs; returning false stops everything. Samples are
// visited in repo.Samples() order.
//
//terids:hotpath
func (ix *Index) MatchingSamplesMulti(r *tuple.Record, rs []*rules.Rule, visit func(ruleIdx int, s *tuple.Record) bool) QueryStats {
	var stats QueryStats
	if len(rs) == 0 {
		return stats
	}
	var distBuf [stackAttrs]float64
	var haveBuf [stackAttrs]bool
	d := r.D()
	dists, have := distBuf[:], haveBuf[:]
	if d > stackAttrs {
		dists, have = make([]float64, d), make([]bool, d)
	}
	have = have[:d]
	for _, s := range ix.repo.Samples() {
		clear(have)
		stats.Verified++
		for i, rule := range rs {
			matched := true
			for _, c := range rule.Determinants {
				x := c.Attr
				if !have[x] {
					dists[x] = tokens.JaccardDistance(r.Tokens(x), s.Tokens(x))
					have[x] = true
				}
				switch c.Kind {
				case rules.Const:
					matched = dists[x] == 0
				case rules.Interval:
					matched = dists[x] >= c.Min && dists[x] <= c.Max
				}
				if !matched {
					break
				}
			}
			if matched {
				stats.Matched++
				if !visit(i, s) {
					return stats
				}
			}
		}
	}
	return stats
}
