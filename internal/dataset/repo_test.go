package dataset

import (
	"fmt"
	"math"
	"testing"

	"terids/internal/repository"
)

// serverShapes are the repositories terids-serve boots the benchmark
// workloads from (mixed-default and durable-smallbatch, impute-heavy,
// resolve-heavy), at serve's own ξ = 0.3, m = 1 and seed 1.
var serverShapes = []struct {
	name    string
	profile string
	opt     Options
}{
	{"mixed-default", "Citations", Options{Scale: 20, RepoRatio: 0.025, MissingRate: 0.3, MissingAttrs: 1, Seed: 1}},
	{"impute-heavy", "Citations", Options{Scale: 10, RepoRatio: 0.1, MissingRate: 0.3, MissingAttrs: 1, Seed: 1}},
	{"resolve-heavy", "EBooks", Options{Scale: 3, RepoRatio: 0.05, MissingRate: 0.3, MissingAttrs: 1, Seed: 1}},
}

// diffRepo reports the first difference between two repositories, comparing
// samples in order by RID, Stream, Seq, EntityID and every value; nil when
// they are equal.
func diffRepo(got, want *repository.Repository) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("|R| = %d, want %d", got.Len(), want.Len())
	}
	for i, g := range got.Samples() {
		w := want.Sample(i)
		if g.RID != w.RID || g.Stream != w.Stream || g.Seq != w.Seq || g.EntityID != w.EntityID {
			return fmt.Errorf("sample %d is %s/%d/%d/entity %d, want %s/%d/%d/entity %d",
				i, g.RID, g.Stream, g.Seq, g.EntityID, w.RID, w.Stream, w.Seq, w.EntityID)
		}
		if g.D() != w.D() {
			return fmt.Errorf("sample %d (%s) has %d values, want %d", i, g.RID, g.D(), w.D())
		}
		for j := 0; j < g.D(); j++ {
			if g.Value(j) != w.Value(j) {
				return fmt.Errorf("sample %d (%s) attribute %d is %q, want %q", i, g.RID, j, g.Value(j), w.Value(j))
			}
		}
	}
	return nil
}

// checkRepo requires GenerateRepo(p, opt) to draw exactly Generate(p, opt).Repo.
func checkRepo(t *testing.T, p Profile, opt Options) {
	t.Helper()
	want, err := Generate(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateRepo(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffRepo(got, want.Repo); err != nil {
		t.Fatalf("%s %+v: %v", p.Name, opt, err)
	}
}

// TestGenerateRepoMatchesGenerate is GenerateRepo's equivalence contract: R
// is drawn after the whole stream, so a stream draw skipped, added or
// reordered shifts every sample after it. The table crosses every profile
// with ξ (none, some and most tuples take the Perm draw), m (1, 2 and one
// past d, which clamps to d−1), seed, η and scale, then adds the three
// repositories the server boots from.
func TestGenerateRepoMatchesGenerate(t *testing.T) {
	for _, p := range Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, xi := range []float64{0, 0.3, 0.8} {
				for _, m := range []int{1, 2, len(p.Attrs) + 1} {
					for _, seed := range []int64{1, 7} {
						for _, eta := range []float64{0.025, 0.5} {
							for _, sc := range []float64{0.25, 1} {
								checkRepo(t, p, Options{Scale: sc, RepoRatio: eta, MissingRate: xi, MissingAttrs: m, Seed: seed})
							}
						}
					}
				}
			}
		})
	}
	for _, s := range serverShapes {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			p, err := ProfileByName(s.profile)
			if err != nil {
				t.Fatal(err)
			}
			checkRepo(t, p, s.opt)
		})
	}
}

// FuzzGenerateRepo extends the table to arbitrary options: any profile and
// seed, scale up to 2, η, ξ in [0, 1] and m from 1 to 5.
func FuzzGenerateRepo(f *testing.F) {
	f.Add(uint8(0), int64(1), 0.25, 0.5, 0.3, uint8(1))
	f.Add(uint8(1), int64(7), 0.4, 0.1, 0.8, uint8(2))
	f.Add(uint8(2), int64(-3), 0.05, 1.0, 1.0, uint8(4))
	f.Add(uint8(3), int64(11), 0.3, 0.05, 0.0, uint8(3))
	f.Add(uint8(4), int64(2), 0.1, 0.025, 0.5, uint8(5))
	f.Fuzz(func(t *testing.T, prof uint8, seed int64, sc, eta, xi float64, m uint8) {
		ps := Profiles()
		opt := Options{
			Scale:        clampUnit(sc/2) * 2,
			RepoRatio:    clampUnit(eta),
			MissingRate:  clampUnit(xi),
			MissingAttrs: 1 + int(m%5),
			Seed:         seed,
		}
		checkRepo(t, ps[int(prof)%len(ps)], opt)
	})
}

// clampUnit maps v into [0, 1], NaN to 0; fill then treats a zero scale or
// η as its default.
func clampUnit(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return math.Min(v, 1)
}

// BenchmarkGenerate and BenchmarkGenerateRepo time the whole dataset draw
// against the repository-only one on the server shapes: the difference is
// what a server boot saves.
func BenchmarkGenerate(b *testing.B) {
	benchShapes(b, func(p Profile, opt Options) error {
		_, err := Generate(p, opt)
		return err
	})
}

func BenchmarkGenerateRepo(b *testing.B) {
	benchShapes(b, func(p Profile, opt Options) error {
		_, err := GenerateRepo(p, opt)
		return err
	})
}

func benchShapes(b *testing.B, gen func(Profile, Options) error) {
	for _, s := range serverShapes {
		b.Run(s.name, func(b *testing.B) {
			p, err := ProfileByName(s.profile)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := gen(p, s.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
