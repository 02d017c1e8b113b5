package cddindex

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"terids/internal/pivot"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("Gender", "Symptom", "Diagnosis", "Treatment")

func sel4() *pivot.Selection {
	mk := func(attr int, text string) pivot.AttrPivots {
		return pivot.AttrPivots{
			Attr:  attr,
			Texts: []string{text},
			Toks:  []tokens.Set{tokens.Tokenize(text)},
		}
	}
	return &pivot.Selection{PerAttr: []pivot.AttrPivots{
		mk(0, "male"),
		mk(1, "fever cough"),
		mk(2, "flu"),
		mk(3, "rest fluids"),
	}}
}

// ruleSetFixture builds a mixed set: gender-conditioned CDDs with varying
// constants, plain DDs, and editing rules — all with Diagnosis dependent.
func ruleSetFixture(t *testing.T) *rules.Set {
	t.Helper()
	set := rules.NewSet(4)
	for i, gender := range []string{"male", "female"} {
		for band := 0; band < 3; band++ {
			set.MustAdd(&rules.Rule{
				Kind: rules.KindCDD, Dependent: 2,
				Determinants: []rules.Constraint{
					{Attr: 0, Kind: rules.Const, Value: gender, Toks: tokens.New(gender)},
					{Attr: 1, Kind: rules.Interval, Min: float64(band) * 0.1, Max: float64(band+1) * 0.1},
				},
				DepMin: 0, DepMax: 0.1 + 0.1*float64(i),
			})
		}
	}
	set.MustAdd(&rules.Rule{
		Kind: rules.KindDD, Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 1, Kind: rules.Interval, Min: 0, Max: 0.3},
		},
		DepMin: 0, DepMax: 0.4,
	})
	set.MustAdd(&rules.Rule{
		Kind: rules.KindEditing, Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 3, Kind: rules.Const, Value: "rest fluids", Toks: tokens.New("rest", "fluids")},
		},
		DepMin: 0, DepMax: 0.1,
	})
	// A rule for another dependent, which must NOT be indexed.
	set.MustAdd(&rules.Rule{
		Kind: rules.KindDD, Dependent: 3,
		Determinants: []rules.Constraint{
			{Attr: 2, Kind: rules.Interval, Min: 0, Max: 0.2},
		},
		DepMin: 0, DepMax: 0.3,
	})
	return set
}

func TestBuildAndShape(t *testing.T) {
	set := ruleSetFixture(t)
	ix, err := Build(set, 2, sel4())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 8 {
		t.Fatalf("indexed %d rules, want 8 (dependent=2 only)", ix.Len())
	}
	// Lattice: {Gender(c), Symptom(i)}, {Symptom(i)}, {Treatment(c)}.
	if ix.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3", ix.Groups())
	}
	if _, err := Build(set, 99, sel4()); err == nil {
		t.Fatal("out-of-range dependent must fail")
	}
}

func TestApplicableMatchesLinearFilter(t *testing.T) {
	set := ruleSetFixture(t)
	ix, err := Build(set, 2, sel4())
	if err != nil {
		t.Fatal(err)
	}
	queries := []*tuple.Record{
		tuple.MustRecord(schema, "q1", 0, 0, []string{"male", "fever cough", "-", "rest fluids"}),
		tuple.MustRecord(schema, "q2", 0, 0, []string{"female", "thirst vision", "-", "other care"}),
		tuple.MustRecord(schema, "q3", 0, 0, []string{"-", "fever cough", "-", "rest fluids"}),
		tuple.MustRecord(schema, "q4", 0, 0, []string{"male", "-", "-", "-"}),
	}
	for _, q := range queries {
		want := map[int]bool{}
		for _, r := range set.ForDependent(2) {
			if r.AppliesTo(q) {
				want[r.ID] = true
			}
		}
		got := map[int]bool{}
		ix.Applicable(q, func(r *rules.Rule) bool {
			got[r.ID] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query %s: got %d rules, want %d", q.RID, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %s: missing rule %d", q.RID, id)
			}
		}
	}
}

func TestApplicableSkipsGroupsWithMissingDeterminants(t *testing.T) {
	set := ruleSetFixture(t)
	ix, _ := Build(set, 2, sel4())
	// Gender missing: the conditioned group is unusable.
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"-", "fever cough", "-", "rest fluids"})
	stats := ix.Applicable(q, func(*rules.Rule) bool { return true })
	if stats.GroupsSkipped == 0 {
		t.Fatal("expected the gender-conditioned group to be skipped")
	}
}

func TestApplicableEarlyStop(t *testing.T) {
	set := ruleSetFixture(t)
	ix, _ := Build(set, 2, sel4())
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever cough", "-", "rest fluids"})
	n := 0
	ix.Applicable(q, func(*rules.Rule) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d rules, want 1", n)
	}
}

func TestEmptyIndex(t *testing.T) {
	set := rules.NewSet(4)
	ix, err := Build(set, 2, sel4())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 || ix.Groups() != 0 {
		t.Fatal("empty set must build an empty index")
	}
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever", "-", "x"})
	stats := ix.Applicable(q, func(*rules.Rule) bool {
		t.Fatal("no rules to visit")
		return true
	})
	if stats.GroupsVisited != 0 {
		t.Fatal("no groups to visit")
	}
}

func TestApplicableRandomizedAgainstLinear(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	set := rules.NewSet(4)
	words := []string{"alpha", "beta", "gamma", "delta", "male", "female"}
	randToksText := func() string {
		n := 1 + r.Intn(3)
		s := ""
		for i := 0; i < n; i++ {
			s += words[r.Intn(len(words))] + " "
		}
		return s
	}
	for i := 0; i < 120; i++ {
		dets := []rules.Constraint{}
		used := map[int]bool{2: true}
		nDet := 1 + r.Intn(2)
		for k := 0; k < nDet; k++ {
			attr := r.Intn(4)
			if used[attr] {
				continue
			}
			used[attr] = true
			if r.Intn(2) == 0 {
				v := randToksText()
				dets = append(dets, rules.Constraint{Attr: attr, Kind: rules.Const, Value: v, Toks: tokens.Tokenize(v)})
			} else {
				lo := r.Float64() * 0.5
				dets = append(dets, rules.Constraint{Attr: attr, Kind: rules.Interval, Min: lo, Max: lo + r.Float64()*0.5})
			}
		}
		if len(dets) == 0 {
			continue
		}
		set.MustAdd(&rules.Rule{
			Kind: rules.KindCDD, Dependent: 2, Determinants: dets,
			DepMin: 0, DepMax: r.Float64(),
		})
	}
	ix, err := Build(set, 2, sel4())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		vals := make([]string, 4)
		for x := 0; x < 4; x++ {
			if x == 2 || r.Intn(4) == 0 {
				vals[x] = "-"
			} else {
				vals[x] = randToksText()
			}
		}
		q := tuple.MustRecord(schema, fmt.Sprintf("q%d", trial), 0, 0, vals)
		var want, got []int
		for _, rl := range set.ForDependent(2) {
			if rl.AppliesTo(q) {
				want = append(want, rl.ID)
			}
		}
		ix.Applicable(q, func(rl *rules.Rule) bool {
			got = append(got, rl.ID)
			return true
		})
		sort.Ints(want)
		sort.Ints(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}
