package impute

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tuple"
)

// TestQuickImputationDistributionsNormalized randomizes repositories, rules
// and incomplete tuples, and asserts the core distribution invariants: all
// probabilities positive, summing to 1, candidate counts respecting the
// cap, and determinism.
func TestQuickImputationDistributionsNormalized(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	randVal := func(width int) string {
		out := ""
		for i := 0; i <= r.Intn(width); i++ {
			out += fmt.Sprintf("w%d ", r.Intn(12))
		}
		return out
	}
	for trial := 0; trial < 60; trial++ {
		var samples []*tuple.Record
		n := 5 + r.Intn(25)
		for i := 0; i < n; i++ {
			samples = append(samples, tuple.MustRecord(schema, fmt.Sprintf("s%d", i), 0, 0,
				[]string{randVal(2), randVal(4), randVal(3)}))
		}
		repo, err := repository.Build(schema, samples)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rules.DefaultDetectConfig()
		cfg.MinSupport = 2
		set := rules.Detect(repo, cfg)
		cap := 1 + r.Intn(6)
		ri := NewRuleImputer("CDD", repo, set, Config{MaxCandidates: cap})
		q := tuple.MustRecord(schema, "q", 0, 0, []string{randVal(2), randVal(4), "-"})
		im1 := ri.Impute(q)
		im2 := ri.Impute(q)
		for j, d := range im1.Dists {
			if len(d.Cands) == 0 {
				t.Fatalf("trial %d attr %d: empty distribution", trial, j)
			}
			if q.IsMissing(j) && len(d.Cands) > cap {
				t.Fatalf("trial %d attr %d: %d candidates exceed cap %d", trial, j, len(d.Cands), cap)
			}
			total := 0.0
			for _, c := range d.Cands {
				if c.P < 0 {
					t.Fatalf("trial %d: negative probability %v", trial, c.P)
				}
				total += c.P
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("trial %d attr %d: probabilities sum to %v", trial, j, total)
			}
			// Determinism.
			if fmt.Sprint(d) != fmt.Sprint(im2.Dists[j]) {
				t.Fatalf("trial %d attr %d: non-deterministic imputation", trial, j)
			}
		}
		if mass := im1.TotalMass(); math.Abs(mass-1) > 1e-9 {
			t.Fatalf("trial %d: total mass %v", trial, mass)
		}
	}
}

// TestQuickAccumulatorCacheConsistency verifies the memoized candidate sets
// equal fresh computations: one index serves every trial, so later trials
// hit sets earlier ones left in its memo.
func TestQuickAccumulatorCacheConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	repo := repoFixture(t)
	dom := repo.Domain(2)
	idx := dom.BuildIndex(repo.Sample(0).Tokens(2))
	intervals := [][2]float64{{0, 0.4}, {0.25, 0.75}, {0.5, 1}, {1, 1}}
	keys := map[[3]float64]bool{}
	for trial := 0; trial < 200; trial++ {
		vi := r.Intn(dom.Len())
		lo := r.Float64() * 0.5
		hi := lo + r.Float64()*0.5
		if trial%2 == 0 {
			iv := intervals[r.Intn(len(intervals))]
			lo, hi = iv[0], iv[1]
		}
		keys[[3]float64{float64(vi), lo, hi}] = true
		want := dom.RangeByDistance(dom.Value(vi).Toks, lo, hi)
		wantFreq := make([]float64, dom.Len())
		for _, w := range want {
			wantFreq[w] = 2
		}
		for _, acc := range []*Accumulator{NewAccumulator(dom, nil), NewAccumulator(dom, idx)} {
			acc.AddSample(vi, lo, hi)
			acc.AddSample(vi, lo, hi) // cached path
			if !slices.Equal(acc.freq, wantFreq) || acc.mass != float64(2*len(want)) {
				t.Fatalf("trial %d (indexed %v): counts %v mass %v, want %v", trial, acc.idx != nil, acc.freq, acc.mass, wantFreq)
			}
		}
	}
	if n := idx.MemoisedSets(); n != len(keys) {
		t.Fatalf("%d memoised sets for %d distinct keys", n, len(keys))
	}
}

// referenceDistribution is the accumulator's previous Distribution, kept as
// the oracle: materialize every candidate in domain order, Normalize, then
// Truncate (sort by probability descending and text ascending, cut,
// renormalize).
func referenceDistribution(a *Accumulator, cfg Config) tuple.AttrDist {
	var dist tuple.AttrDist
	for v, f := range a.freq {
		if f != 0 {
			dv := a.dom.Value(v)
			dist.Cands = append(dist.Cands, tuple.Candidate{Text: dv.Text, Toks: dv.Toks, P: f})
		}
	}
	if len(dist.Cands) == 0 {
		return FailedCandidate()
	}
	dist.Normalize()
	dist.Truncate(cfg.MaxCandidates)
	return dist
}

// TestQuickDistributionMatchesReference checks the top-k selection against
// the build-all, sort and truncate reference: same candidates, same order,
// and bit-identical probabilities, for no cap, caps below, at and above the
// candidate count, and an accumulator nothing was added to. An accumulator
// over a pivot index is fed the same samples and must emit the same
// distributions, == on every probability.
func TestQuickDistributionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	sch := tuple.MustSchema("a")
	for trial := 0; trial < 300; trial++ {
		recs := make([]*tuple.Record, 2+r.Intn(60))
		for i := range recs {
			words := ""
			for k := 1 + r.Intn(4); k > 0; k-- {
				words += fmt.Sprintf("w%d ", r.Intn(9))
			}
			recs[i] = tuple.MustRecord(sch, fmt.Sprintf("s%d", i), 0, 0, []string{words})
		}
		repo, err := repository.Build(sch, recs)
		if err != nil {
			t.Fatal(err)
		}
		dom := repo.Domain(0)
		acc := NewAccumulator(dom, nil)
		indexed := NewAccumulator(dom, dom.BuildIndex(dom.Value(r.Intn(dom.Len())).Toks))
		// Few samples leave many equal counts, so the text tie-break decides
		// the cut; many samples spread the counts out. Intervals come from a
		// small pool, as a rule set's do, so the index's memo gets hits.
		var pool [3][2]float64
		for i := range pool {
			lo := r.Float64() * 0.6
			pool[i] = [2]float64{lo, lo + r.Float64()*0.6}
		}
		for n := r.Intn(12); n > 0; n-- {
			v, iv := r.Intn(dom.Len()), pool[r.Intn(len(pool))]
			acc.AddSample(v, iv[0], iv[1])
			indexed.AddSample(v, iv[0], iv[1])
		}
		for _, k := range []int{-1, 0, 1, 2, 3, 6, dom.Len(), dom.Len() + 5} {
			cfg := Config{MaxCandidates: k}
			want := referenceDistribution(acc, cfg)
			for _, got := range []tuple.AttrDist{acc.Distribution(cfg), indexed.Distribution(cfg)} {
				if len(got.Cands) != len(want.Cands) {
					t.Fatalf("trial %d cap %d: %d candidates, reference %d", trial, k, len(got.Cands), len(want.Cands))
				}
				for i := range want.Cands {
					g, w := got.Cands[i], want.Cands[i]
					if g.Text != w.Text || g.P != w.P || !g.Toks.Equal(w.Toks) {
						t.Fatalf("trial %d cap %d: candidate %d = {%q %v}, reference {%q %v}", trial, k, i, g.Text, g.P, w.Text, w.P)
					}
				}
			}
		}
	}
}
