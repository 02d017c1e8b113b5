package drindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("Gender", "Symptom", "Diagnosis")

func buildFixture(t *testing.T, n int, seed int64) (*repository.Repository, *pivot.Selection) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	genders := []string{"male", "female"}
	diseases := [][2]string{
		{"thirst weight loss vision", "diabetes"},
		{"fever cough aches", "flu"},
		{"red eye itchy tears", "conjunctivitis"},
	}
	var recs []*tuple.Record
	for i := 0; i < n; i++ {
		dz := diseases[r.Intn(len(diseases))]
		sym := dz[0]
		if r.Intn(2) == 0 {
			sym += fmt.Sprintf(" extra%d", r.Intn(3))
		}
		recs = append(recs, tuple.MustRecord(schema, fmt.Sprintf("s%d", i), 0, 0,
			[]string{genders[r.Intn(2)], sym, dz[1]}))
	}
	repo, err := repository.Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := pivot.Select(repo, pivot.Config{Buckets: 10, MinEntropy: 1.0, CntMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	return repo, sel
}

func TestBuildAndLen(t *testing.T) {
	repo, sel := buildFixture(t, 50, 1)
	ix, err := Build(repo, sel, tokens.New("diabetes"))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 50 {
		t.Fatalf("Len = %d, want 50", ix.Len())
	}
}

func TestMatchingSamplesAgainstLinearScan(t *testing.T) {
	repo, sel := buildFixture(t, 80, 2)
	ix, err := Build(repo, sel, tokens.New("diabetes"))
	if err != nil {
		t.Fatal(err)
	}
	testRules := []*rules.Rule{
		{
			Kind: rules.KindCDD, Dependent: 2,
			Determinants: []rules.Constraint{
				{Attr: 0, Kind: rules.Const, Value: "male", Toks: tokens.New("male")},
				{Attr: 1, Kind: rules.Interval, Min: 0, Max: 0.4},
			},
			DepMin: 0, DepMax: 0.3,
		},
		{
			Kind: rules.KindDD, Dependent: 2,
			Determinants: []rules.Constraint{
				{Attr: 1, Kind: rules.Interval, Min: 0.1, Max: 0.5},
			},
			DepMin: 0, DepMax: 0.5,
		},
		{
			Kind: rules.KindEditing, Dependent: 2,
			Determinants: []rules.Constraint{
				{Attr: 0, Kind: rules.Const, Value: "female", Toks: tokens.New("female")},
			},
			DepMin: 0, DepMax: 0.1,
		},
	}
	queries := []*tuple.Record{
		tuple.MustRecord(schema, "q1", 0, 0, []string{"male", "thirst weight loss vision", "-"}),
		tuple.MustRecord(schema, "q2", 0, 0, []string{"female", "fever cough aches", "-"}),
		tuple.MustRecord(schema, "q3", 0, 0, []string{"male", "red eye itchy", "-"}),
	}
	for _, rule := range testRules {
		for _, q := range queries {
			if !rule.AppliesTo(q) {
				continue
			}
			want := map[string]bool{}
			for _, s := range repo.Samples() {
				if rule.SampleMatches(q, s) {
					want[s.RID] = true
				}
			}
			got := map[string]bool{}
			stats := ix.MatchingSamplesMulti(q, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
				got[s.RID] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("rule %v query %s: got %d matches, want %d", rule, q.RID, len(got), len(want))
			}
			for rid := range want {
				if !got[rid] {
					t.Fatalf("rule %v query %s: missing sample %s", rule, q.RID, rid)
				}
			}
			if stats.Matched != len(want) {
				t.Fatalf("stats.Matched = %d, want %d", stats.Matched, len(want))
			}
		}
	}
}

func TestMatchingSamplesEarlyStop(t *testing.T) {
	repo, sel := buildFixture(t, 60, 4)
	ix, err := Build(repo, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	rule := &rules.Rule{
		Kind: rules.KindDD, Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 1, Kind: rules.Interval, Min: 0, Max: 1},
		},
		DepMin: 0, DepMax: 1,
	}
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever cough aches", "-"})
	n := 0
	ix.MatchingSamplesMulti(q, []*rules.Rule{rule}, func(int, *tuple.Record) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d, want 1", n)
	}
}

// TestAddRemove: a sample repo.Add-ed after Build is matched, with no call
// on the index (the dynamic repository extension of Section 5.5).
func TestAddRemove(t *testing.T) {
	repo, sel := buildFixture(t, 20, 5)
	ix, err := Build(repo, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := tuple.MustRecord(schema, "new1", 0, 0, []string{"male", "fever cough aches", "flu"})
	if err := repo.Add(extra); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 21 {
		t.Fatalf("Len = %d after repo.Add, want 21", ix.Len())
	}
	rule := &rules.Rule{
		Kind: rules.KindCDD, Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 0, Kind: rules.Const, Value: "male", Toks: tokens.New("male")},
			{Attr: 1, Kind: rules.Interval, Min: 0, Max: 0},
		},
		DepMin: 0, DepMax: 0.1,
	}
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever cough aches", "-"})
	found := false
	ix.MatchingSamplesMulti(q, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
		found = found || s == extra
		return true
	})
	if !found {
		t.Fatal("the added sample must be matched")
	}
}

func TestBuildSchemaMismatch(t *testing.T) {
	repo, _ := buildFixture(t, 10, 6)
	badSel := &pivot.Selection{PerAttr: []pivot.AttrPivots{{Attr: 0, Toks: []tokens.Set{tokens.New("x")}}}}
	if _, err := Build(repo, badSel, nil); err == nil {
		t.Fatal("selection/schema mismatch must fail")
	}
}

// TestDeterministicMatches: matches are visited in repo.Samples() order, so
// two calls agree sample for sample.
func TestDeterministicMatches(t *testing.T) {
	repo, sel := buildFixture(t, 60, 7)
	ix, err := Build(repo, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	rule := &rules.Rule{
		Kind: rules.KindDD, Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 1, Kind: rules.Interval, Min: 0, Max: 0.5},
		},
		DepMin: 0, DepMax: 0.4,
	}
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever cough aches", "-"})
	var want []string
	for _, s := range repo.Samples() {
		if rule.SampleMatches(q, s) {
			want = append(want, s.RID)
		}
	}
	if len(want) < 2 {
		t.Fatalf("fixture: %d matches pin no order", len(want))
	}
	for run := 0; run < 2; run++ {
		var got []string
		ix.MatchingSamplesMulti(q, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
			got = append(got, s.RID)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("run %d visited %v, want repo.Samples() order %v", run, got, want)
		}
	}
}
