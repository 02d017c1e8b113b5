// Package prune implements the four pruning strategies of Section 4: topic
// keyword pruning (Theorem 4.1), similarity upper bound pruning via token
// set sizes and via pivots (Theorem 4.2, Lemmas 4.1/4.2), probability upper
// bound pruning via the Paley–Zygmund inequality (Theorem 4.3, Lemma 4.3),
// and instance-pair-level pruning during refinement (Theorem 4.4).
package prune

import (
	"slices"

	"terids/internal/agg"
	"terids/internal/bitvec"
	"terids/internal/pivot"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Bounds is the Section 5.2 aggregate over a set of candidate values: one
// imputed tuple's (its Profile) or an ER-grid cell's (the union over its
// residents). The pruning rules read nothing else, so tuple-level and
// cell-level pruning are the same computation. Bounds built under one pivot
// selection and keyword set share one shape: len(Dist[x]) is attribute x's
// pivot count.
type Bounds struct {
	// KW has bit i set iff some summarized value contains query keyword i,
	// keywords in text order.
	KW bitvec.Vector
	// Dist[x][a] bounds dist(value, piv_a[A_x]) over the summarized values
	// of attribute x (a = 0 is the main pivot).
	Dist [][]agg.Interval
	// Size[x] bounds |T(value)|.
	Size []agg.IntInterval
}

// Clone returns an independent copy of b.
func (b Bounds) Clone() Bounds {
	out := Bounds{KW: b.KW.Clone(), Dist: make([][]agg.Interval, len(b.Dist)), Size: slices.Clone(b.Size)}
	for x, row := range b.Dist {
		out.Dist[x] = slices.Clone(row)
	}
	return out
}

// Merge widens b to cover o, which must have b's shape.
func (b *Bounds) Merge(o Bounds) {
	b.KW.Or(o.KW)
	for x, row := range b.Dist {
		for a := range row {
			row[a].ExtendInterval(o.Dist[x][a])
		}
		b.Size[x].ExtendInterval(o.Size[x])
	}
}

// Profile precomputes, for one imputed tuple, everything the pruning rules
// and the ER-grid need: its Bounds, the pivot distance expectations, and the
// probability and topic flag of each of its instances.
type Profile struct {
	Im *tuple.Imputed
	Bounds
	// Exp[x][a] is E(dist(r^p[A_x], piv_a[A_x])) per the aggregate list of
	// Section 5.2.
	Exp [][]float64
	// MayKW reports whether any instance contains any query keyword
	// (Theorem 4.1's condition).
	MayKW bool
	// inst lists the instances of Definition 4 — the cross product of the
	// candidate lists, attribute 0 slowest — without their token sets:
	// Refine reads those from Im by candidate index, or from single.
	inst []instance
	// single holds the token sets of the only instance, attribute by
	// attribute, when there is exactly one — a complete tuple, the common
	// case — and is nil otherwise.
	single []tokens.Set
}

// instance is one r_{i,m} of an imputed tuple.
type instance struct {
	p  float64 // joint existence probability r_{i,m}.p
	kw bool    // ϖ(r_{i,m}, K)
}

// BuildProfile computes the profile of an imputed tuple under the given
// pivot selection and query keywords; bit i of KW corresponds to the i-th
// keyword in text order.
func BuildProfile(im *tuple.Imputed, sel *pivot.Selection, keywords tokens.Set) *Profile {
	d := len(im.Dists)
	kwByText := keywords.SortedByText()
	slots := 0
	for x := 0; x < d; x++ {
		slots += sel.NumPivots(x)
	}
	dist, exp := make([]agg.Interval, slots), make([]float64, slots)
	p := &Profile{
		Im: im,
		Bounds: Bounds{
			KW:   bitvec.New(len(keywords)),
			Dist: make([][]agg.Interval, d),
			Size: make([]agg.IntInterval, d),
		},
		Exp: make([][]float64, d),
	}
	for x := 0; x < d; x++ {
		nPiv := sel.NumPivots(x)
		p.Dist[x], dist = dist[:nPiv:nPiv], dist[nPiv:]
		p.Exp[x], exp = exp[:nPiv:nPiv], exp[nPiv:]
		for a := 0; a < nPiv; a++ {
			p.Dist[x][a] = agg.EmptyInterval()
		}
		p.Size[x] = agg.EmptyIntInterval()
		for _, c := range im.Dists[x].Cands {
			p.Size[x].Extend(c.Toks.Len())
			for a := 0; a < nPiv; a++ {
				dist := tokens.JaccardDistance(c.Toks, sel.PerAttr[x].Toks[a])
				p.Dist[x][a].Extend(dist)
				p.Exp[x][a] += dist * c.P
			}
			for i, kw := range kwByText {
				if c.Toks.Contains(kw) {
					p.KW.Set(i)
				}
			}
		}
	}
	p.MayKW = p.KW.Any()
	p.inst = instances(im, keywords)
	if len(p.inst) == 1 {
		p.single = make([]tokens.Set, d)
		for x := range p.single {
			p.single[x] = im.Dists[x].Cands[0].Toks
		}
	}
	return p
}

// instances enumerates the instances of im with an odometer over candidate
// indices, attribute 0 slowest. pre[x] and kw[x] hold the probability product
// and keyword flag of the candidates chosen on attributes < x, so a
// candidate's factor is applied once per prefix and every joint probability
// is the left-to-right product 1·P_0·P_1·…·P_{d-1}.
func instances(im *tuple.Imputed, keywords tokens.Set) []instance {
	d := len(im.Dists)
	out := make([]instance, 0, im.InstanceCount())
	if cap(out) == 0 {
		return out
	}
	var idxBuf [stackAttrs]int
	var preBuf [stackAttrs + 1]float64
	var kwBuf [stackAttrs + 1]bool
	idx, pre, kw := scratch(idxBuf[:], d), scratch(preBuf[:], d+1), scratch(kwBuf[:], d+1)
	pre[0] = 1
	for from := 0; ; {
		for x := from; x < d; x++ {
			c := im.Dists[x].Cands[idx[x]]
			pre[x+1] = pre[x] * c.P
			kw[x+1] = kw[x] || c.Toks.ContainsAny(keywords)
		}
		out = append(out, instance{p: pre[d], kw: kw[d]})
		if from = tick(idx, im); from < 0 {
			return out
		}
	}
}

// tick advances an odometer over im's candidate indices, last attribute
// fastest, and returns the leftmost attribute whose index changed, or -1
// once it wraps around to all zeros.
func tick(idx []int, im *tuple.Imputed) int {
	for x := len(idx) - 1; x >= 0; x-- {
		if idx[x]++; idx[x] < len(im.Dists[x].Cands) {
			return x
		}
		idx[x] = 0
	}
	return -1
}

// Below these sizes the per-call scratch of instances and equation2 lives in
// fixed arrays on the stack; past them it comes from the heap.
const (
	stackAttrs = 8
	stackCells = 96
)

// scratch returns buf[:n] when n fits and a fresh slice otherwise.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}
