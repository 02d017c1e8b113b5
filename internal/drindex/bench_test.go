package drindex

import (
	"testing"

	"terids/internal/dataset"
	"terids/internal/pivot"
	"terids/internal/rules"
	"terids/internal/tuple"
)

var benchMatched int

// BenchmarkMatchingSamples is the DR-index rung of the benchmark ladder, on
// the two shapes the benchmark workloads impute: Citations at -scale 20
// -eta 0.025 probed by a ξ = 0.3 stream (mixed-default, |R| = 245), and at
// -scale 10 -eta 0.1 probed by a ξ = 0.8, m = 2 stream (impute-heavy,
// |R| = 490). Both use dataset seed 1, the repository the server draws (at
// ξ = 0.3, m = 1) and the rules the miner detects on it. One op is one
// MatchingSamplesMulti call with a counting visit, cycling through the
// (tuple, missing attribute) probes that have at least one applicable rule.
func BenchmarkMatchingSamples(b *testing.B) {
	for _, w := range []struct {
		name       string
		scale, eta float64
		xi         float64
		m          int
	}{
		{"mixed-default", 20, 0.025, 0.3, 1},
		{"impute-heavy", 10, 0.1, 0.8, 2},
	} {
		b.Run(w.name, func(b *testing.B) {
			p, err := dataset.ProfileByName("Citations")
			if err != nil {
				b.Fatal(err)
			}
			opts := dataset.Options{Scale: w.scale, RepoRatio: w.eta, MissingRate: 0.3, MissingAttrs: 1, Seed: 1}
			server, err := dataset.Generate(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			opts.MissingRate, opts.MissingAttrs = w.xi, w.m
			data, err := dataset.Generate(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			sel, err := pivot.Select(server.Repo, pivot.Defaults())
			if err != nil {
				b.Fatal(err)
			}
			set := rules.Detect(server.Repo, rules.DefaultDetectConfig())
			ix, err := Build(server.Repo, sel, nil)
			if err != nil {
				b.Fatal(err)
			}
			type query struct {
				r  *tuple.Record
				rs []*rules.Rule
			}
			var queries []query
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
						queries = append(queries, query{r, rs})
					}
				}
			}
			if len(queries) == 0 {
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
				q := queries[i%len(queries)]
				ix.MatchingSamplesMulti(q.r, q.rs, count)
			}
			benchMatched = n
		})
	}
}
