package pivot

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"terids/internal/repository"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("A", "B")

func buildRepo(t *testing.T, values [][2]string) *repository.Repository {
	t.Helper()
	var recs []*tuple.Record
	for i, v := range values {
		recs = append(recs, tuple.MustRecord(schema, fmt.Sprintf("s%d", i), 0, 0, []string{v[0], v[1]}))
	}
	repo, err := repository.Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestEntropy(t *testing.T) {
	// Uniform over 4 of 4 buckets: entropy = ln 4.
	vals := []float64{0.1, 0.35, 0.6, 0.85}
	if got, want := Entropy(vals, 4), math.Log(4); math.Abs(got-want) > 1e-9 {
		t.Fatalf("uniform entropy = %v, want %v", got, want)
	}
	// All in one bucket: 0.
	if got := Entropy([]float64{0.1, 0.12, 0.15}, 10); got != 0 {
		t.Fatalf("degenerate entropy = %v, want 0", got)
	}
	// Edge cases.
	if Entropy(nil, 10) != 0 || Entropy([]float64{0.5}, 0) != 0 {
		t.Fatal("empty inputs must give 0")
	}
	// Boundary value 1.0 must fall in the last bucket, not panic.
	if got := Entropy([]float64{1.0, 0.0}, 10); got <= 0 {
		t.Fatalf("boundary entropy = %v, want > 0", got)
	}
}

func TestEntropyMaximizedByUniform(t *testing.T) {
	uniform := make([]float64, 100)
	skewed := make([]float64, 100)
	for i := range uniform {
		uniform[i] = float64(i) / 100
		skewed[i] = 0.05
	}
	if Entropy(uniform, 10) <= Entropy(skewed, 10) {
		t.Fatal("uniform distribution must have higher entropy than skewed")
	}
}

func TestSelectPrefersSpreadingPivot(t *testing.T) {
	// Attribute A domain: values designed so "a b c d e" spreads distances
	// while "z" collapses everything near distance 1.
	var values [][2]string
	vocab := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 20; i++ {
		// Values share a sliding window of the vocab: varying overlap.
		v := ""
		for k := 0; k < 3; k++ {
			v += vocab[(i+k)%len(vocab)] + " "
		}
		values = append(values, [2]string{v, "constant"})
	}
	repo := buildRepo(t, values)
	sel, err := Select(repo, Config{Buckets: 5, MinEntropy: 0.5, CntMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.PerAttr) != 2 {
		t.Fatalf("PerAttr len = %d, want 2", len(sel.PerAttr))
	}
	if sel.PerAttr[0].NumPivots() < 1 {
		t.Fatal("attribute A must have at least the main pivot")
	}
	if sel.PerAttr[0].Entropy <= 0 {
		t.Fatal("attribute A pivot entropy must be positive")
	}
	// Attribute B has a single domain value: entropy 0 but a pivot exists.
	if sel.PerAttr[1].NumPivots() != 1 {
		t.Fatalf("constant attribute must select exactly 1 pivot, got %d", sel.PerAttr[1].NumPivots())
	}
}

func TestSelectAddsAuxiliaryPivots(t *testing.T) {
	// A domain with two clusters far apart: one pivot cannot spread both, a
	// second pivot raises the joint entropy.
	var values [][2]string
	for i := 0; i < 10; i++ {
		values = append(values, [2]string{fmt.Sprintf("c1 x%d", i%3), "k"})
		values = append(values, [2]string{fmt.Sprintf("c2 y%d", i%3), "k"})
	}
	repo := buildRepo(t, values)
	selLow, err := Select(repo, Config{Buckets: 10, MinEntropy: 0.1, CntMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	selHigh, err := Select(repo, Config{Buckets: 10, MinEntropy: 5.0, CntMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	if selHigh.PerAttr[0].NumPivots() < selLow.PerAttr[0].NumPivots() {
		t.Fatalf("higher eMin must select at least as many pivots: %d vs %d",
			selHigh.PerAttr[0].NumPivots(), selLow.PerAttr[0].NumPivots())
	}
	if selHigh.PerAttr[0].Entropy < selLow.PerAttr[0].Entropy-1e-9 {
		t.Fatal("more pivots must not lower joint entropy")
	}
}

func TestSelectRespectsCntMax(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var values [][2]string
	for i := 0; i < 60; i++ {
		values = append(values, [2]string{
			fmt.Sprintf("w%d w%d w%d", r.Intn(20), r.Intn(20), r.Intn(20)),
			fmt.Sprintf("u%d", r.Intn(10)),
		})
	}
	repo := buildRepo(t, values)
	for cntMax := 1; cntMax <= 4; cntMax++ {
		sel, err := Select(repo, Config{Buckets: 10, MinEntropy: 99, CntMax: cntMax})
		if err != nil {
			t.Fatal(err)
		}
		for x := range sel.PerAttr {
			if n := sel.PerAttr[x].NumPivots(); n > cntMax {
				t.Fatalf("attr %d selected %d pivots, cntMax %d", x, n, cntMax)
			}
		}
	}
}

func TestSelectEmptyRepo(t *testing.T) {
	repo, err := repository.Build(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(repo, Defaults()); err == nil {
		t.Fatal("empty repository must fail")
	}
}

func TestSelectRejectsTooManyBuckets(t *testing.T) {
	repo := buildRepo(t, [][2]string{{"a b", "x"}, {"c d", "x"}})
	if _, err := Select(repo, Config{Buckets: maxBuckets + 1}); err == nil {
		t.Fatal("bucket ids are bytes: more than 256 buckets must fail")
	}
	if _, err := Select(repo, Config{Buckets: maxBuckets}); err != nil {
		t.Fatal(err)
	}
}

func TestConvert(t *testing.T) {
	repo := buildRepo(t, [][2]string{{"a b", "x"}, {"c d", "x"}})
	sel, err := Select(repo, Config{Buckets: 4, MinEntropy: 0.01, CntMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	main := sel.Main(0)
	if got := sel.Convert(0, main); got != 0 {
		t.Fatalf("Convert(main pivot) = %v, want 0", got)
	}
	if got := sel.Convert(0, tokens.New("zzz")); got != 1 {
		t.Fatalf("Convert(disjoint) = %v, want 1", got)
	}
}
