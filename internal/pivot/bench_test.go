package pivot

import (
	"testing"

	"terids/internal/dataset"
	"terids/internal/repository"
)

// serverShapes are the repositories the three benchmark server shapes draw:
// dataset seed 1 at ξ = 0.3, m = 1, whatever the workload's own stream.
var serverShapes = []struct {
	name, profile string
	scale, eta    float64
}{
	{"mixed-default", "Citations", 20, 0.025},
	{"impute-heavy", "Citations", 10, 0.1},
	{"resolve-heavy", "EBooks", 3, 0.05},
}

func serverRepo(b *testing.B, profile string, scale, eta float64) *repository.Repository {
	b.Helper()
	p, err := dataset.ProfileByName(profile)
	if err != nil {
		b.Fatal(err)
	}
	data, err := dataset.Generate(p, dataset.Options{Scale: scale, RepoRatio: eta, MissingRate: 0.3, MissingAttrs: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return data.Repo
}

// BenchmarkSelect is the pivot-selection rung of the offline phase: one op
// is one Select at the paper's defaults over a server shape's repository.
func BenchmarkSelect(b *testing.B) {
	for _, s := range serverShapes {
		b.Run(s.name, func(b *testing.B) {
			repo := serverRepo(b, s.profile, s.scale, s.eta)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Select(repo, Defaults()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
