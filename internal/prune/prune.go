package prune

import (
	"math"

	"terids/internal/tokens"
	"terids/internal/tuple"
)

// TopicPrune implements Theorem 4.1: a pair is safely pruned when no
// possible instance of either tuple contains a query keyword.
func TopicPrune(a, b *Profile) bool {
	return !a.MayKW && !b.MayKW
}

// SimUpperBound returns ub_sim(a, b) per Theorem 4.2: the sum over
// attributes of per-attribute upper bounds, each the tighter of Lemma 4.1
// (token-set sizes) and Lemma 4.2 (pivot triangle inequality over every
// pivot both sides carry).
func SimUpperBound(a, b Bounds) float64 {
	total := 0.0
	for x, da := range a.Dist {
		ub := 1.0
		sa, sb := a.Size[x], b.Size[x]
		if !sa.IsEmpty() && !sb.IsEmpty() {
			if s := tokens.SimUpperBoundBySizeInterval(sa.Lo, sa.Hi, sb.Lo, sb.Hi); s < ub {
				ub = s
			}
		}
		// Each pivot yields a lower bound on the attribute distance; the
		// largest gives the tightest similarity upper bound.
		db := b.Dist[x]
		for p := 0; p < len(da) && p < len(db); p++ {
			if da[p].IsEmpty() || db[p].IsEmpty() {
				continue
			}
			if s := 1 - tokens.MinDistByPivot(da[p].Lo, da[p].Hi, db[p].Lo, db[p].Hi); s < ub {
				ub = s
			}
		}
		if ub < 0 {
			ub = 0
		}
		total += ub
	}
	return total
}

// SimPrune implements Theorem 4.2: prune when ub_sim <= γ.
func SimPrune(a, b Bounds, gamma float64) bool {
	return SimUpperBound(a, b) <= gamma
}

// ProbUpperBound computes UB_Pr per Lemma 4.3 (Paley–Zygmund) over the main
// pivot: X = dist(a, piv), Y = dist(b, piv) summed across attributes.
// d is the dimensionality and gamma the similarity threshold.
func ProbUpperBound(a, b *Profile, gamma float64) float64 {
	d := len(a.Dist)
	var eX, eY, lbX, ubX, lbY, ubY float64
	for x := 0; x < d; x++ {
		eX += a.Exp[x][0]
		eY += b.Exp[x][0]
		ia, ib := a.Dist[x][0], b.Dist[x][0]
		if ia.IsEmpty() || ib.IsEmpty() {
			return 1 // nothing known; trivial bound
		}
		lbX += ia.Lo
		ubX += ia.Hi
		lbY += ib.Lo
		ubY += ib.Hi
	}
	dg := float64(d) - gamma
	switch {
	case lbX >= ubY && eX-eY > 0 && dg >= 0 && dg <= eX-eY:
		theta := dg / (eX - eY)
		denom := ubX - lbY
		if denom <= 0 {
			return 1
		}
		return 1 - (1-theta)*(1-theta)*(eX-eY)/denom
	case lbY >= ubX && eY-eX > 0 && dg >= 0 && dg <= eY-eX:
		theta := dg / (eY - eX)
		denom := ubY - lbX
		if denom <= 0 {
			return 1
		}
		return 1 - (1-theta)*(1-theta)*(eY-eX)/denom
	default:
		return 1
	}
}

// ProbPrune implements Theorem 4.3: prune when UB_Pr <= α.
func ProbPrune(a, b *Profile, gamma, alpha float64) bool {
	return ProbUpperBound(a, b, gamma) <= alpha
}

// RefineResult reports the outcome of the instance-pair refinement.
type RefineResult struct {
	// Prob is the exact TER-iDS probability (Equation 2) when fully
	// computed; a partial sum when pruned or accepted early.
	Prob float64
	// Match reports whether Prob > alpha was established.
	Match bool
	// PrunedEarly reports whether Theorem 4.4 stopped the enumeration
	// before all instance pairs were checked.
	PrunedEarly bool
	// PairsChecked counts instance pairs actually evaluated.
	PairsChecked int
}

// Refine computes Pr_TER-iDS(a, b) (Equation 2) with the
// instance-pair-level pruning of Theorem 4.4: after each instance pair, the
// unprocessed probability mass is added optimistically; if even that bound
// cannot exceed alpha, the pair is pruned without checking the rest.
// Symmetrically, once the accumulated exact probability exceeds alpha the
// pair is accepted early.
//
//terids:hotpath
func Refine(a, b *Profile, gamma, alpha float64) RefineResult {
	return equation2(a, b, gamma, alpha, true, true)
}

// ExactProbability computes Equation 2 with no early exits; the reference
// for tests and the straightforward baseline. The topic indicator is
// checked first, skipping similarity work for non-topic instance pairs —
// an optimization only a topic-aware method can apply.
func ExactProbability(a, b *Profile, gamma float64) float64 {
	return equation2(a, b, gamma, 0, false, true).Prob
}

// ExactProbabilityFullER computes the same value as ExactProbability, but
// the way a non-topic-aware method must (the Section 6.1 baselines resolve
// ALL entity pairs and filter by topic afterwards): every instance pair's
// similarity is evaluated, whether or not a topic keyword is present.
func ExactProbabilityFullER(a, b *Profile, gamma float64) float64 {
	return equation2(a, b, gamma, 0, false, false).Prob
}

// equation2 walks the instance pairs of a and b — a's instances outer, each
// side in enumeration order — and sums the joint probability of every pair
// that is topic-relevant with Definition 5 similarity above gamma. exits
// turns on Theorem 4.4's early accept and early prune against alpha;
// topicFirst tests the topic flags before the similarity, so non-topic pairs
// cost no Jaccard at all.
//
//terids:hotpath
func equation2(a, b *Profile, gamma, alpha float64, exits, topicFirst bool) RefineResult {
	if len(a.Dist) != len(b.Dist) {
		panic("prune: profiles of different dimensionality")
	}
	var t pairTable
	if a.single != nil && b.single != nil {
		t.sa, t.sb = a.single, b.single
	} else {
		t.a, t.b = a.Im.Dists, b.Im.Dists
		d := len(t.a)
		var intBuf [3 * stackAttrs]int
		var jtBuf [stackCells]float64
		ints, jt := scratch(intBuf[:], 3*d), scratch(jtBuf[:], t.cells())
		for c := range jt {
			jt[c] = math.NaN()
		}
		t.ia, t.ib, t.row, t.jt = ints[:d], ints[d:2*d], ints[2*d:3*d], jt
	}

	var res RefineResult
	sum := 0.0       // exact probability over checked pairs
	processed := 0.0 // probability mass of checked pairs
	for m, pa := range a.inst {
		if m > 0 {
			tick(t.ia, a.Im)
		}
		t.rows()
		for n, pb := range b.inst {
			if n > 0 {
				tick(t.ib, b.Im)
			}
			mass := pa.p * pb.p
			if topic := pa.kw || pb.kw; topic || !topicFirst {
				if sim := t.sim(); topic && sim > gamma {
					sum += mass
				}
			}
			processed += mass
			res.PairsChecked++
			if exits {
				if sum > alpha {
					res.Prob = sum
					res.Match = true
					return res
				}
				// Theorem 4.4: optimistic bound over the remainder.
				if sum+(1-processed) <= alpha {
					res.Prob = sum
					res.PrunedEarly = true
					return res
				}
			}
		}
		clear(t.ib)
	}
	res.Prob = sum
	res.Match = sum > alpha
	return res
}

// pairTable is equation2's view of one profile pair. An instance is a choice
// of one candidate per attribute; ia and ib hold the current choices of a and
// b and advance like odometers. A pair's similarity is the sum over x of
// J_x(ia[x], ib[x]), the Jaccard of the two chosen candidates' token sets.
// Each J_x(i, k) recurs for every pair that chooses i and k on x, so it is
// computed on first use and kept in jt, NaN until then: attribute x's table
// follows those of the attributes before it, and row[x] is where the row of
// a's current candidate starts, so J_x(ia[x], k) is jt[row[x]+k].
//
// When both profiles have a single instance there is one pair and nothing
// recurs: the table stays unset and sa, sb hold the two instances.
type pairTable struct {
	a, b        []tuple.AttrDist
	ia, ib, row []int
	jt          []float64
	sa, sb      []tokens.Set
}

// cells is the size of the whole table.
func (t *pairTable) cells() int {
	n := 0
	for x, da := range t.a {
		n += len(da.Cands) * len(t.b[x].Cands)
	}
	return n
}

// rows points row at a's current candidates.
func (t *pairTable) rows() {
	off := 0
	for x := range t.row {
		nb := len(t.b[x].Cands)
		t.row[x] = off + t.ia[x]*nb
		off += len(t.a[x].Cands) * nb
	}
}

// sim is the Definition 5 similarity of the current instance pair: its
// per-attribute Jaccards added left to right from 0.
func (t *pairTable) sim() float64 {
	s := 0.0
	if t.sa != nil {
		for x, sa := range t.sa {
			s += tokens.Jaccard(sa, t.sb[x])
		}
		return s
	}
	for x, r := range t.row {
		c := r + t.ib[x]
		j := t.jt[c]
		if math.IsNaN(j) {
			j = tokens.Jaccard(t.a[x].Cands[t.ia[x]].Toks, t.b[x].Cands[t.ib[x]].Toks)
			t.jt[c] = j
		}
		s += j
	}
	return s
}
