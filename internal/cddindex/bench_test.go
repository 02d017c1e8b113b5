package cddindex

import (
	"testing"

	"terids/internal/dataset"
	"terids/internal/pivot"
	"terids/internal/rules"
	"terids/internal/tuple"
)

var benchApplicable int

// BenchmarkApplicable is the CDD-index rung of the benchmark ladder, over the
// rules the miner detects on the impute-heavy repository shape (Citations,
// |R| = 490). One op is one Applicable call with a counting visit, cycling
// through the (tuple, missing attribute) probes of a ξ = 0.8, m = 2 stream.
func BenchmarkApplicable(b *testing.B) {
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
	idx := make([]*Index, set.D())
	for j := range idx {
		if idx[j], err = Build(set, j, sel); err != nil {
			b.Fatal(err)
		}
	}
	type probe struct {
		r *tuple.Record
		j int
	}
	var probes []probe
	for _, r := range data.Stream {
		for j := 0; j < r.D(); j++ {
			if r.IsMissing(j) {
				probes = append(probes, probe{r, j})
			}
		}
	}
	if len(probes) == 0 {
		b.Fatal("fixture: no incomplete tuple")
	}
	n := 0
	count := func(*rules.Rule) bool {
		n++
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := probes[i%len(probes)]
		idx[pr.j].Applicable(pr.r, count)
	}
	benchApplicable = n
}
