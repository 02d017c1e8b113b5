// Package drindex implements the DR-index I_R of Section 5.1: an aR-tree
// over the repository samples converted to d-dimensional points (Jaccard
// distance to the main pivot per attribute), with node aggregates carrying
// keyword vectors, auxiliary-pivot distance intervals, and token-set-size
// intervals. Given an incomplete tuple and a CDD rule, the index retrieves
// the samples satisfying the rule's determinant constraints: the converted
// coordinates give a triangle-inequality necessary condition, and real
// Jaccard distances verify candidates at the leaves.
package drindex

import (
	"fmt"
	"slices"
	"sync"

	"terids/internal/agg"
	"terids/internal/artree"
	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Index is the DR-index I_R.
type Index struct {
	repo     *repository.Repository
	sel      *pivot.Selection
	keywords []uint32 // in text order: keyword i owns aggregate bit i
	nPiv     int
	tree     *artree.Tree
	queries  sync.Pool // of *multiQuery
}

// Build converts every repository sample to its d-dimensional point and
// bulk-inserts into the aR-tree. keywords drive the keyword-vector
// aggregates (bit i = the i-th keyword in text order).
func Build(repo *repository.Repository, sel *pivot.Selection, keywords tokens.Set) (*Index, error) {
	d := repo.Schema().D()
	if len(sel.PerAttr) != d {
		return nil, fmt.Errorf("drindex: selection has %d attributes, schema %d", len(sel.PerAttr), d)
	}
	nPiv := 1 + sel.MaxAux()
	ix := &Index{
		repo:     repo,
		sel:      sel,
		keywords: keywords.SortedByText(),
		nPiv:     nPiv,
		tree:     artree.New(d, agg.Merger{D: d, NPiv: nPiv, NKW: len(keywords)}),
	}
	ix.queries.New = func() any {
		return &multiQuery{dists: make([]float64, d), have: make([]bool, d)}
	}
	for _, s := range repo.Samples() {
		ix.insert(s)
	}
	return ix, nil
}

// Len returns the number of indexed samples.
func (ix *Index) Len() int { return ix.tree.Len() }

// Add indexes a new complete sample (dynamic repository extension of
// Section 5.5). The sample must already be in the repository.
func (ix *Index) Add(s *tuple.Record) { ix.insert(s) }

func (ix *Index) insert(s *tuple.Record) {
	d := ix.repo.Schema().D()
	coords := make([]float64, d)
	sum := agg.NewSummary(d, ix.nPiv, len(ix.keywords))
	for x := 0; x < d; x++ {
		coords[x] = ix.sel.Convert(x, s.Tokens(x))
		sum.Size[x].Extend(s.Tokens(x).Len())
		for a := 0; a < ix.sel.NumPivots(x); a++ {
			sum.Dist[x][a].Extend(tokens.JaccardDistance(s.Tokens(x), ix.sel.PerAttr[x].Toks[a]))
		}
	}
	for i, kw := range ix.keywords {
		if s.ContainsAnyKeyword(tokens.Set{kw}) {
			sum.KW.Set(i)
		}
	}
	ix.tree.Insert(artree.Item{Rect: artree.Point(coords...), Data: s, Agg: sum})
}

// Remove deletes a sample by RID, returning whether it was found.
func (ix *Index) Remove(s *tuple.Record) bool {
	d := ix.repo.Schema().D()
	coords := make([]float64, d)
	for x := 0; x < d; x++ {
		coords[x] = ix.sel.Convert(x, s.Tokens(x))
	}
	return ix.tree.Delete(artree.Point(coords...), func(it artree.Item) bool {
		return it.Data.(*tuple.Record).RID == s.RID
	})
}

// QueryStats reports index work per MatchingSamples call.
type QueryStats struct {
	NodesVisited int
	NodesPruned  int
	Verified     int
	Matched      int
}

// MatchingSamples streams the repository samples satisfying rule's
// determinant constraints with respect to r (the sample-side check of
// Definition 3). The traversal prunes aR-tree nodes via the converted-space
// window implied by each constraint and via auxiliary-pivot aggregates,
// then verifies real distances on the leaves. Returning false from visit
// stops the scan. The caller must have checked rule.AppliesTo(r).
func (ix *Index) MatchingSamples(r *tuple.Record, rule *rules.Rule, visit func(*tuple.Record) bool) QueryStats {
	return ix.MatchingSamplesMulti(r, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
		return visit(s)
	})
}

type auxWin struct {
	attr int
	aux  int // pivot slot >= 1
	lo   float64
	hi   float64
}

// ruleGeometry is the per-rule query window plus aux-pivot windows.
type ruleGeometry struct {
	lo, hi []float64
	aux    []auxWin
}

// setGeometry fills g, whose lo and hi already have one slot per attribute,
// with the window rule implies for r.
func (ix *Index) setGeometry(g *ruleGeometry, r *tuple.Record, rule *rules.Rule) {
	for x := range g.lo {
		g.lo[x], g.hi[x] = 0, 1
	}
	g.aux = g.aux[:0]
	for _, c := range rule.Determinants {
		x := c.Attr
		switch c.Kind {
		case rules.Const:
			// Samples must equal the constant: the converted coordinate is
			// pinned, and every aux distance is pinned too.
			cc := ix.sel.Convert(x, c.Toks)
			g.lo[x], g.hi[x] = cc, cc
			for a := 1; a < ix.sel.NumPivots(x); a++ {
				da := tokens.JaccardDistance(c.Toks, ix.sel.PerAttr[x].Toks[a])
				g.aux = append(g.aux, auxWin{x, a, da, da})
			}
		case rules.Interval:
			// |dist(s,piv) - dist(r,piv)| <= dist(r[x], s[x]) <= Max.
			cr := ix.sel.Convert(x, r.Tokens(x))
			g.lo[x], g.hi[x] = clamp01(cr-c.Max), clamp01(cr+c.Max)
			for a := 1; a < ix.sel.NumPivots(x); a++ {
				da := tokens.JaccardDistance(r.Tokens(x), ix.sel.PerAttr[x].Toks[a])
				g.aux = append(g.aux, auxWin{x, a, clamp01(da - c.Max), clamp01(da + c.Max)})
			}
		}
	}
}

// nodeMayHold reports whether an aR-tree node (MBR + aggregate) can contain
// samples satisfying the rule geometry.
func (g *ruleGeometry) nodeMayHold(rect artree.Rect, sum *agg.Summary) bool {
	for x := range g.lo {
		if rect.Min[x] > g.hi[x] || rect.Max[x] < g.lo[x] {
			return false
		}
	}
	for _, w := range g.aux {
		iv := sum.Dist[w.attr][w.aux]
		if iv.IsEmpty() {
			continue
		}
		if iv.Lo > w.hi || iv.Hi < w.lo {
			return false
		}
	}
	return true
}

// multiQuery is the state of one MatchingSamplesMulti call. It is recycled
// through Index.queries, so the rule windows and the per-sample distance
// cache are allocated once per concurrent caller rather than once per call.
type multiQuery struct {
	r     *tuple.Record
	rs    []*rules.Rule
	visit func(ruleIdx int, s *tuple.Record) bool
	stats QueryStats

	geoms  []ruleGeometry
	bounds []float64 // backs every geometry's lo and hi
	// dists[x] caches dist(r[A_x], s[A_x]) for the sample under
	// verification; have[x] says whether it has been computed yet.
	dists []float64
	have  []bool
}

// MatchingSamplesMulti retrieves, in a single aR-tree traversal, the
// samples matching each of several rules with respect to r. A node is
// descended if ANY rule's window may hold samples below it; at the leaves,
// the per-attribute Jaccard distances dist(r[A_x], s[A_x]) are computed
// ONCE per sample and every rule is verified against the cached distances
// (a constant constraint that survived AppliesTo(r) pins the value to
// r's, i.e. distance exactly 0). Verification therefore costs one Jaccard
// per attribute per sample — independent of the rule count — which is the
// index join's advantage over the per-rule repository scans of the
// baselines (Section 5.3). visit receives the rule's index in the input
// slice; returning false stops everything.
func (ix *Index) MatchingSamplesMulti(r *tuple.Record, rs []*rules.Rule, visit func(ruleIdx int, s *tuple.Record) bool) QueryStats {
	if len(rs) == 0 {
		return QueryStats{}
	}
	q := ix.queries.Get().(*multiQuery)
	q.r, q.rs, q.visit, q.stats = r, rs, visit, QueryStats{}
	d := len(q.dists)
	q.bounds = slices.Grow(q.bounds[:0], 2*d*len(rs))[:2*d*len(rs)]
	// Growing within capacity keeps the aux buffers of earlier calls.
	q.geoms = slices.Grow(q.geoms[:0], len(rs))[:len(rs)]
	for i, rule := range rs {
		g := &q.geoms[i]
		g.lo, g.hi = q.bounds[2*d*i:2*d*i+d], q.bounds[2*d*i+d:2*d*(i+1)]
		ix.setGeometry(g, r, rule)
	}
	ix.tree.Traverse(q.descend, q.verify)
	stats := q.stats
	q.r, q.rs, q.visit = nil, nil, nil
	ix.queries.Put(q)
	return stats
}

// descend is the node test: a subtree is entered if any rule's window may
// hold samples below it.
func (q *multiQuery) descend(rect artree.Rect, a any) bool {
	q.stats.NodesVisited++
	if rect.Dims() == 0 {
		q.stats.NodesPruned++
		return false
	}
	sum := a.(*agg.Summary)
	for i := range q.geoms {
		if q.geoms[i].nodeMayHold(rect, sum) {
			return true
		}
	}
	q.stats.NodesPruned++
	return false
}

// verify is the leaf verifier: the exact check of every rule against one
// sample, over distances computed at most once per attribute.
//
//terids:hotpath
func (q *multiQuery) verify(it artree.Item) bool {
	s := it.Data.(*tuple.Record)
	for x := range q.have {
		q.have[x] = false
	}
	q.stats.Verified++
	for i, rule := range q.rs {
		// No per-geometry window recheck: the cached-distance
		// verification below is exact and cheaper than d float
		// comparisons per geometry.
		matched := true
		for _, c := range rule.Determinants {
			x := c.Attr
			if !q.have[x] {
				q.dists[x] = tokens.JaccardDistance(q.r.Tokens(x), s.Tokens(x))
				q.have[x] = true
			}
			switch c.Kind {
			case rules.Const:
				// AppliesTo(r) established r[A_x] == const, so the
				// sample matches iff it equals r's value.
				if q.dists[x] != 0 {
					matched = false
				}
			case rules.Interval:
				if q.dists[x] < c.Min || q.dists[x] > c.Max {
					matched = false
				}
			}
			if !matched {
				break
			}
		}
		if matched {
			q.stats.Matched++
			if !q.visit(i, s) {
				return false
			}
		}
	}
	return true
}

// RootSummary exposes the whole-repository aggregate (used by the join to
// derive coarse bounds before descending).
func (ix *Index) RootSummary() *agg.Summary {
	return ix.tree.RootAgg().(*agg.Summary)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
