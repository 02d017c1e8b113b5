package core

import (
	"fmt"
	"testing"

	"terids/internal/dataset"
	"terids/internal/impute"
	"terids/internal/rules"
	"terids/internal/tuple"
)

// prepareDataset generates dataset seed 1 of the named profile at missing
// rate xi (the golden-stream data) and runs the offline phase over it.
func prepareDataset(t *testing.T, profile string, xi float64) (*dataset.Data, *Shared) {
	t.Helper()
	prof, err := dataset.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	opt := dataset.DefaultOptions()
	opt.Seed, opt.MissingRate = 1, xi
	data, err := dataset.Generate(prof, opt)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Prepare(data.Repo, DefaultPrepareConfig(data.Keywords))
	if err != nil {
		t.Fatal(err)
	}
	return data, sh
}

// TestImputeMatchesRuleImputer runs the indexed join (CDD-index → DR-index)
// against the unindexed rule scan on mined rule sets, whose intervals no
// hand-written fixture reproduces: every candidate of every imputed
// distribution must be the same text with the same probability, and the
// DR-index must report exactly the (rule, sample) pairs SampleMatches accepts.
// The DR-index must also filter: no call verifies all of R (what a rule with
// no filtering determinant costs), and all calls together verify at most
// 15 % of calls × |R|.
func TestImputeMatchesRuleImputer(t *testing.T) {
	for _, profile := range []string{"Citations", "EBooks"} {
		for _, xi := range []float64{0.3, 0.8} {
			t.Run(fmt.Sprintf("%s/xi=%v", profile, xi), func(t *testing.T) {
				t.Parallel()
				data, sh := prepareDataset(t, profile, xi)
				step, err := NewStep(sh, Config{
					Keywords: data.Keywords, Gamma: 0.5 * float64(sh.Schema.D()), Alpha: 0.5,
					WindowSize: 200, Streams: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				ref := impute.NewRuleImputer("CDD", sh.Repo, sh.Rules, step.Config().Impute).WithDomainIndexes(sh.DomIdx)
				matched, pairs, imputed := 0, 0, 0
				calls, verified, scans := 0, 0, 0
				for _, r := range data.Stream {
					if r.IsComplete() {
						continue
					}
					got, _ := step.Impute(r)
					want := ref.Impute(r)
					for j := range want.Dists {
						g, w := got.Dists[j].Cands, want.Dists[j].Cands
						if len(g) != len(w) {
							t.Fatalf("%s attr %d: %d candidates, reference %d", r.RID, j, len(g), len(w))
						}
						for k := range w {
							if g[k].Text != w[k].Text || g[k].P != w[k].P {
								t.Fatalf("%s attr %d candidate %d: %q %v, reference %q %v",
									r.RID, j, k, g[k].Text, g[k].P, w[k].Text, w[k].P)
							}
						}
						if !r.IsMissing(j) {
							continue
						}
						imputed++
						var applicable []*rules.Rule
						sh.CDDIdx[j].Applicable(r, func(rule *rules.Rule) bool {
							applicable = append(applicable, rule)
							return true
						})
						stats := sh.DRIdx.MatchingSamplesMulti(r, applicable, func(int, *tuple.Record) bool { return true })
						matched += stats.Matched
						if len(applicable) > 0 {
							calls++
							verified += stats.Verified
							if stats.Verified >= sh.Repo.Len() {
								scans++
							}
						}
						for _, rule := range sh.Rules.ForDependent(j) {
							if !rule.AppliesTo(r) {
								continue
							}
							for _, s := range sh.Repo.Samples() {
								if rule.SampleMatches(r, s) {
									pairs++
								}
							}
						}
					}
				}
				if imputed == 0 || pairs == 0 {
					t.Fatalf("fixture: %d imputations, %d matching pairs pin nothing", imputed, pairs)
				}
				if matched != pairs {
					t.Fatalf("Σ Matched = %d, SampleMatches accepts %d (rule, sample) pairs", matched, pairs)
				}
				if scans > 0 {
					t.Fatalf("%d of %d calls verified all %d samples", scans, calls, sh.Repo.Len())
				}
				if limit := 0.15 * float64(calls*sh.Repo.Len()); float64(verified) > limit {
					t.Fatalf("Σ Verified = %d over %d calls, above 15 %% of calls × |R| = %.0f", verified, calls, limit)
				}
				t.Logf("%d imputations, Σ Matched %d, %d calls verified %.1f of %d samples each", imputed, matched, calls, float64(verified)/float64(calls), sh.Repo.Len())
			})
		}
	}
}

// TestImputeIndexesAllocateNothing pins both imputation indexes at zero
// allocations per call, with a counting visit, on every imputation of the
// Citations ξ = 0.8 stream that has an applicable rule.
func TestImputeIndexesAllocateNothing(t *testing.T) {
	data, sh := prepareDataset(t, "Citations", 0.8)
	var applicable []*rules.Rule
	collect := func(rule *rules.Rule) bool {
		applicable = append(applicable, rule)
		return true
	}
	n := 0
	countRule := func(*rules.Rule) bool {
		n++
		return true
	}
	countSample := func(int, *tuple.Record) bool {
		n++
		return true
	}
	probes := 0
	for _, r := range data.Stream {
		for j := 0; j < r.D(); j++ {
			if !r.IsMissing(j) {
				continue
			}
			applicable = applicable[:0]
			sh.CDDIdx[j].Applicable(r, collect)
			if len(applicable) == 0 {
				continue
			}
			probes++
			if a := testing.AllocsPerRun(5, func() { sh.CDDIdx[j].Applicable(r, countRule) }); a != 0 {
				t.Fatalf("%s attr %d: Applicable allocates %v per call", r.RID, j, a)
			}
			if a := testing.AllocsPerRun(5, func() { sh.DRIdx.MatchingSamplesMulti(r, applicable, countSample) }); a != 0 {
				t.Fatalf("%s attr %d: MatchingSamplesMulti allocates %v per call", r.RID, j, a)
			}
		}
	}
	if probes == 0 || n == 0 {
		t.Fatal("fixture: no imputation with an applicable rule")
	}
}
