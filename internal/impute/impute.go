// Package impute implements the missing-data imputation of Section 3: given
// an incomplete tuple and dependency rules detected from a complete
// repository R, build per-attribute candidate-value distributions (single
// rule: Equation 3; multiple rules: Equation 4). It also provides the
// baseline imputers of Section 6.1: DD rules, editing rules, and the
// constraint-based stream imputer of con+ER.
package impute

import (
	"terids/internal/metrics"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tuple"
)

// Config tunes distribution construction.
type Config struct {
	// MaxCandidates caps each attribute's candidate list (0 = unlimited).
	// The cross product of candidates forms the instance set of
	// Definition 4, so the cap bounds instance-pair enumeration cost.
	MaxCandidates int
}

// DefaultConfig caps candidates at 6 per attribute.
func DefaultConfig() Config { return Config{MaxCandidates: 6} }

// Imputer turns incomplete records into imputed probabilistic tuples.
type Imputer interface {
	// Name identifies the strategy in reports (e.g. "CDD", "DD", "er",
	// "con").
	Name() string
	// Impute returns the imputed version of r. Complete records are
	// wrapped trivially. Implementations must be deterministic.
	Impute(r *tuple.Record) *tuple.Imputed
}

// FailedCandidate is the placeholder distribution used when no rule/sample
// yields any candidate: a single empty value with probability 1, so the
// tuple still has well-defined instances (its similarity contribution on
// the attribute is then 0 against any non-empty value).
func FailedCandidate() tuple.AttrDist {
	return tuple.Point("", nil)
}

// Accumulator gathers candidate-value frequencies for one attribute across
// rules and samples, then emits the normalized distribution of Equation 4.
// With a pivot index the candidate sets come from the index's memo, which
// outlives the accumulator; without one each is a linear domain scan.
type Accumulator struct {
	dom *repository.Domain
	idx *repository.Index
	// freq[v] is the count of domain value v; mass is the sum of all
	// counts. Counts are whole numbers, so both are exact and independent
	// of the order samples and candidates are added in.
	freq []float64
	mass float64
}

// NewAccumulator creates an accumulator over dom; idx may be nil (linear
// domain scans, the unindexed reference) or a pivot index over dom
// (memoised, triangle-inequality accelerated scans). Both produce identical
// results.
func NewAccumulator(dom *repository.Domain, idx *repository.Index) *Accumulator {
	return &Accumulator{
		dom:  dom,
		idx:  idx,
		freq: make([]float64, dom.Len()),
	}
}

// AddSample registers one repository sample s matched by a rule with
// dependent interval [depMin, depMax]: every domain value val with
// dist(s[A_j], val) inside the interval gains one count (the cand(s[A_j])
// set of Section 3).
//
//terids:hotpath
func (a *Accumulator) AddSample(sampleValIdx int, depMin, depMax float64) {
	if a.idx != nil {
		cands := a.idx.Neighbours(sampleValIdx, depMin, depMax)
		cands.AddTo(a.freq)
		a.mass += float64(cands.Len())
		return
	}
	cands := a.dom.RangeByDistance(a.dom.Value(sampleValIdx).Toks, depMin, depMax)
	for _, c := range cands {
		a.freq[c]++
	}
	a.mass += float64(len(cands))
}

// Empty reports whether no candidate was accumulated.
func (a *Accumulator) Empty() bool { return a.mass == 0 }

// Distribution emits the candidate distribution with probabilities
// proportional to accumulated frequencies (Equation 4): every candidate in
// domain order when there are at most cfg.MaxCandidates of them (or no
// cap), otherwise the cfg.MaxCandidates most probable, ties broken by text,
// renormalized. An empty accumulator yields FailedCandidate.
func (a *Accumulator) Distribution(cfg Config) tuple.AttrDist {
	if a.mass == 0 {
		return FailedCandidate()
	}
	n := 0
	for _, f := range a.freq {
		if f != 0 {
			n++
		}
	}
	k := cfg.MaxCandidates
	if k <= 0 || n <= k {
		dist := tuple.AttrDist{Cands: make([]tuple.Candidate, 0, n)}
		for v, f := range a.freq {
			if f != 0 {
				dist.Cands = append(dist.Cands, a.candidate(v))
			}
		}
		return dist
	}
	// top holds the best k values seen so far, best first. Ranking by count
	// is ranking by probability: all counts are divided by the same mass.
	top := make([]int, 0, k)
	for v, f := range a.freq {
		if f == 0 {
			continue
		}
		pos := len(top)
		for pos > 0 && a.ranksBefore(v, top[pos-1]) {
			pos--
		}
		if pos == k {
			continue
		}
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = v
	}
	dist := tuple.AttrDist{Cands: make([]tuple.Candidate, k)}
	for i, v := range top {
		dist.Cands[i] = a.candidate(v)
	}
	dist.Normalize()
	return dist
}

// candidate is domain value v with its share of the accumulated mass.
func (a *Accumulator) candidate(v int) tuple.Candidate {
	dv := a.dom.Value(v)
	return tuple.Candidate{Text: dv.Text, Toks: dv.Toks, P: a.freq[v] / a.mass}
}

// ranksBefore orders domain values by count descending, then text
// ascending.
func (a *Accumulator) ranksBefore(v, w int) bool {
	if a.freq[v] != a.freq[w] {
		return a.freq[v] > a.freq[w]
	}
	return a.dom.Value(v).Text < a.dom.Value(w).Text
}

// RuleImputer imputes by scanning the repository with a rule set — the
// unindexed path used by the CDD+ER, DD+ER, and er+ER baselines, and the
// reference the indexed TER-iDS path must agree with.
type RuleImputer struct {
	name      string
	repo      *repository.Repository
	rules     *rules.Set
	cfg       Config
	breakdown *metrics.Breakdown
	domIdx    []*repository.Index // optional, per attribute
}

// NewRuleImputer builds a rule-based imputer. name labels the strategy.
func NewRuleImputer(name string, repo *repository.Repository, set *rules.Set, cfg Config) *RuleImputer {
	return &RuleImputer{name: name, repo: repo, rules: set, cfg: cfg}
}

// WithBreakdown makes the imputer record rule-selection and imputation
// durations into b (Figure 6's first two phases).
func (ri *RuleImputer) WithBreakdown(b *metrics.Breakdown) *RuleImputer {
	ri.breakdown = b
	return ri
}

// WithDomainIndexes installs per-attribute pivot indexes to accelerate
// candidate range queries (results are unchanged).
func (ri *RuleImputer) WithDomainIndexes(idx []*repository.Index) *RuleImputer {
	ri.domIdx = idx
	return ri
}

// Name implements Imputer.
func (ri *RuleImputer) Name() string { return ri.name }

// Impute implements Imputer.
func (ri *RuleImputer) Impute(r *tuple.Record) *tuple.Imputed {
	if r.IsComplete() {
		return tuple.FromComplete(r)
	}
	im := &tuple.Imputed{R: r, Dists: make([]tuple.AttrDist, r.D())}
	for j := 0; j < r.D(); j++ {
		if !r.IsMissing(j) {
			im.Dists[j] = tuple.Point(r.Value(j), r.Tokens(j))
			continue
		}
		im.Dists[j] = ri.imputeAttr(r, j)
	}
	return im
}

func (ri *RuleImputer) imputeAttr(r *tuple.Record, j int) tuple.AttrDist {
	var sw metrics.Stopwatch
	sw.Start()
	var applicable []*rules.Rule
	for _, rule := range ri.rules.ForDependent(j) {
		if rule.AppliesTo(r) {
			applicable = append(applicable, rule)
		}
	}
	if ri.breakdown != nil {
		ri.breakdown.Select += sw.Lap()
	}

	dom := ri.repo.Domain(j)
	var idx *repository.Index
	if ri.domIdx != nil {
		idx = ri.domIdx[j]
	}
	acc := NewAccumulator(dom, idx)
	for _, rule := range applicable {
		for _, s := range ri.repo.Samples() {
			if rule.SampleMatches(r, s) {
				acc.AddSample(dom.Lookup(s.Value(j)), rule.DepMin, rule.DepMax)
			}
		}
	}
	dist := acc.Distribution(ri.cfg)
	if ri.breakdown != nil {
		ri.breakdown.Impute += sw.Lap()
	}
	return dist
}

// Rules exposes the rule set (the core processor shares it with its
// indexes).
func (ri *RuleImputer) Rules() *rules.Set { return ri.rules }
