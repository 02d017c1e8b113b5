package impute

import (
	"testing"

	"terids/internal/dataset"
	"terids/internal/tuple"
)

var benchDist tuple.AttrDist

// BenchmarkAccumulator is the impute.Accumulator rung of the benchmark
// ladder, over the title domain of the impute-heavy repository (Citations,
// |R| = 490, ≈470 distinct titles). One op of miss and hit is one AddSample:
// miss computes the neighbour set (a pivot-prefiltered scan of the domain),
// hit finds it in the index's memo; both then walk it into the counts. The
// intervals are three the rule miner emits on this repository: one matching
// next to nothing, one a band, one most of the domain.
func BenchmarkAccumulator(b *testing.B) {
	p, err := dataset.ProfileByName("Citations")
	if err != nil {
		b.Fatal(err)
	}
	data, err := dataset.Generate(p, dataset.Options{RepoRatio: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dom := data.Repo.Domain(0)
	pivot := data.Repo.Sample(0).Tokens(0)
	intervals := [][2]float64{{0, 0.1}, {1.0 / 6, 0.6}, {4.0 / 9, 1}}
	keys := dom.Len() * len(intervals)
	add := func(acc *Accumulator, k int) {
		iv := intervals[k%len(intervals)]
		acc.AddSample(k/len(intervals), iv[0], iv[1])
	}

	b.Run("miss", func(b *testing.B) {
		var acc *Accumulator
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%keys == 0 { // every key has been asked for: start over on an empty memo
				b.StopTimer()
				acc = NewAccumulator(dom, dom.BuildIndex(pivot))
				b.StartTimer()
			}
			add(acc, i%keys)
		}
	})
	b.Run("hit", func(b *testing.B) {
		acc := NewAccumulator(dom, dom.BuildIndex(pivot))
		for k := 0; k < keys; k++ {
			add(acc, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(acc, i%keys)
		}
	})
	b.Run("Distribution", func(b *testing.B) {
		acc := NewAccumulator(dom, dom.BuildIndex(pivot))
		for k := 0; k < 2*len(intervals); k++ { // two matched samples under each interval
			add(acc, k)
		}
		cfg := Config{MaxCandidates: 6}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchDist = acc.Distribution(cfg)
		}
	})
}
