package tuple

import (
	"sort"

	"terids/internal/tokens"
)

// Candidate is one possible value of an (imputed) attribute together with
// its existence probability (Equations 3 and 4 of the paper).
type Candidate struct {
	Text string
	Toks tokens.Set
	P    float64
}

// AttrDist is the distribution over candidate values of a single attribute.
// A non-missing attribute is represented by a single candidate with P = 1.
type AttrDist struct {
	Cands []Candidate
}

// Point builds a single-candidate distribution (probability 1) for a known
// value.
func Point(text string, toks tokens.Set) AttrDist {
	return AttrDist{Cands: []Candidate{{Text: text, Toks: toks, P: 1}}}
}

// Normalize rescales the candidate probabilities to sum to 1. Distributions
// with zero total mass are left untouched.
func (d *AttrDist) Normalize() {
	total := 0.0
	for _, c := range d.Cands {
		total += c.P
	}
	if total <= 0 {
		return
	}
	for i := range d.Cands {
		d.Cands[i].P /= total
	}
}

// Truncate keeps only the cap most probable candidates (ties broken by
// text for determinism) and renormalizes. cap <= 0 means no truncation.
func (d *AttrDist) Truncate(cap int) {
	if cap <= 0 || len(d.Cands) <= cap {
		return
	}
	sort.Slice(d.Cands, func(i, j int) bool {
		if d.Cands[i].P != d.Cands[j].P {
			return d.Cands[i].P > d.Cands[j].P
		}
		return d.Cands[i].Text < d.Cands[j].Text
	})
	d.Cands = d.Cands[:cap]
	d.Normalize()
}

// Imputed is the imputed (probabilistic) version r^p of an incomplete record
// (Definition 4): one candidate distribution per attribute. Its instances
// are the cross product of the per-attribute candidates; prune.BuildProfile
// enumerates them.
type Imputed struct {
	R     *Record
	Dists []AttrDist
}

// FromComplete wraps a record without missing attributes into its trivial
// imputed form (a single instance with probability 1). Missing attributes,
// if any, become empty-valued single candidates; callers that can impute
// should do so instead.
func FromComplete(r *Record) *Imputed {
	im := &Imputed{R: r, Dists: make([]AttrDist, r.D())}
	for j := 0; j < r.D(); j++ {
		if r.IsMissing(j) {
			im.Dists[j] = Point("", nil)
		} else {
			im.Dists[j] = Point(r.Value(j), r.Tokens(j))
		}
	}
	return im
}

// InstanceCount returns the number of instances (product of candidate
// counts).
func (im *Imputed) InstanceCount() int {
	n := 1
	for _, d := range im.Dists {
		n *= len(d.Cands)
	}
	return n
}

// TotalMass returns the sum of instance probabilities (≤ 1 per
// Definition 4; exactly 1 after Normalize on every distribution).
func (im *Imputed) TotalMass() float64 {
	total := 1.0
	for _, d := range im.Dists {
		m := 0.0
		for _, c := range d.Cands {
			m += c.P
		}
		total *= m
	}
	return total
}
