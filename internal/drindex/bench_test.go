package drindex

import (
	"testing"

	"terids/internal/dataset"
	"terids/internal/pivot"
	"terids/internal/rules"
	"terids/internal/tuple"
)

var benchMatched int

// BenchmarkMatchingSamples is the DR-index rung of the benchmark ladder,
// over the impute-heavy repository shape (Citations, |R| = 490) with the rules
// the miner detects on it. One op is one MatchingSamplesMulti call with a
// counting visit, cycling through the (tuple, missing attribute) probes of a
// ξ = 0.8, m = 2 stream that have at least one applicable rule.
func BenchmarkMatchingSamples(b *testing.B) {
	p, err := dataset.ProfileByName("Citations")
	if err != nil {
		b.Fatal(err)
	}
	data, err := dataset.Generate(p, dataset.Options{RepoRatio: 1, MissingRate: 0.8, MissingAttrs: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sel, err := pivot.Select(data.Repo, pivot.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	set := rules.Detect(data.Repo, rules.DefaultDetectConfig())
	ix, err := Build(data.Repo, sel, nil)
	if err != nil {
		b.Fatal(err)
	}
	type probe struct {
		r  *tuple.Record
		rs []*rules.Rule
	}
	var probes []probe
	for _, r := range data.Stream {
		for j := 0; j < r.D(); j++ {
			if !r.IsMissing(j) {
				continue
			}
			var rs []*rules.Rule
			for _, rule := range set.ForDependent(j) {
				if rule.AppliesTo(r) {
					rs = append(rs, rule)
				}
			}
			if len(rs) > 0 {
				probes = append(probes, probe{r, rs})
			}
		}
	}
	if len(probes) == 0 {
		b.Fatal("fixture: no probe has an applicable rule")
	}
	n := 0
	count := func(int, *tuple.Record) bool {
		n++
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := probes[i%len(probes)]
		ix.MatchingSamplesMulti(pr.r, pr.rs, count)
	}
	benchMatched = n
}
