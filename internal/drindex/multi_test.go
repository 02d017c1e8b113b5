package drindex

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// TestMultiMatchesPerRuleQueries: the batched traversal must return exactly
// the union of per-rule results, labeled with the right rule indexes.
func TestMultiMatchesPerRuleQueries(t *testing.T) {
	repo, sel := buildFixture(t, 100, 11)
	ix, err := Build(repo, sel, tokens.New("diabetes"))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(12))
	mkRules := func() []*rules.Rule {
		var rs []*rules.Rule
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			var dets []rules.Constraint
			if r.Intn(3) == 0 {
				dets = append(dets, rules.Constraint{
					Attr: 0, Kind: rules.Const, Value: "male", Toks: tokens.New("male"),
				})
			}
			lo := r.Float64() * 0.4
			dets = append(dets, rules.Constraint{
				Attr: 1, Kind: rules.Interval, Min: lo, Max: lo + 0.1 + r.Float64()*0.4,
			})
			rs = append(rs, &rules.Rule{
				Kind: rules.KindCDD, Dependent: 2, Determinants: dets,
				DepMin: 0, DepMax: r.Float64(),
			})
		}
		return rs
	}
	for trial := 0; trial < 40; trial++ {
		rs := mkRules()
		q := tuple.MustRecord(schema, "q", 0, 0,
			[]string{"male", "thirst weight loss vision", "-"})
		// Keep only rules that apply to q (the caller's contract).
		applicable := rs[:0]
		for _, rule := range rs {
			if rule.AppliesTo(q) {
				applicable = append(applicable, rule)
			}
		}
		if len(applicable) == 0 {
			continue
		}
		type hit struct {
			rule int
			rid  string
		}
		var multi, single []hit
		ix.MatchingSamplesMulti(q, applicable, func(ri int, s *tuple.Record) bool {
			multi = append(multi, hit{ri, s.RID})
			return true
		})
		for ri, rule := range applicable {
			ix.MatchingSamplesMulti(q, []*rules.Rule{rule}, func(_ int, s *tuple.Record) bool {
				single = append(single, hit{ri, s.RID})
				return true
			})
		}
		key := func(h hit) string { return fmt.Sprintf("%d|%s", h.rule, h.rid) }
		ms := make([]string, len(multi))
		ss := make([]string, len(single))
		for i, h := range multi {
			ms[i] = key(h)
		}
		for i, h := range single {
			ss[i] = key(h)
		}
		sort.Strings(ms)
		sort.Strings(ss)
		if fmt.Sprint(ms) != fmt.Sprint(ss) {
			t.Fatalf("trial %d: multi %v != single %v", trial, ms, ss)
		}
	}
}

func TestMultiEmptyRules(t *testing.T) {
	repo, sel := buildFixture(t, 20, 13)
	ix, err := Build(repo, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever cough aches", "-"})
	stats := ix.MatchingSamplesMulti(q, nil, func(int, *tuple.Record) bool {
		t.Fatal("no rules, no visits")
		return true
	})
	if stats.Verified != 0 {
		t.Fatal("no rules must verify nothing")
	}
}

func TestMultiEarlyStop(t *testing.T) {
	repo, sel := buildFixture(t, 60, 14)
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
	ix.MatchingSamplesMulti(q, []*rules.Rule{rule, rule}, func(int, *tuple.Record) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d, want 1", n)
	}
}
