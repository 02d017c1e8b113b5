package rules

import (
	"testing"

	"terids/internal/dataset"
)

// BenchmarkDetect is the rule-mining rung of the offline phase: one op is
// the two Detect calls core.Prepare makes, the banded set and the
// cumulative DD set, over the repository a benchmark server shape draws
// (dataset seed 1 at ξ = 0.3, m = 1).
func BenchmarkDetect(b *testing.B) {
	for _, s := range []struct {
		name, profile string
		scale, eta    float64
	}{
		{"mixed-default", "Citations", 20, 0.025},
		{"impute-heavy", "Citations", 10, 0.1},
		{"resolve-heavy", "EBooks", 3, 0.05},
	} {
		b.Run(s.name, func(b *testing.B) {
			p, err := dataset.ProfileByName(s.profile)
			if err != nil {
				b.Fatal(err)
			}
			data, err := dataset.Generate(p, dataset.Options{Scale: s.scale, RepoRatio: s.eta, MissingRate: 0.3, MissingAttrs: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			banded := DefaultDetectConfig()
			dd := banded
			dd.Cumulative, dd.DisableCDD, dd.DisableEditing = true, true, true
			dd.MaxDepWidth *= 1.5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Detect(data.Repo, banded)
				Detect(data.Repo, dd)
			}
		})
	}
}
