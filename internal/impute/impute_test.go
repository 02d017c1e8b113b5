package impute

import (
	"fmt"
	"math"
	"testing"

	"terids/internal/metrics"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// paperSchema/paperRepo reconstruct the Example 3 setting with textual
// attributes: 3 attributes A, B, C where B values control candidate
// retrieval for C.
var schema = tuple.MustSchema("Gender", "Symptom", "Diagnosis")

func repoFixture(t *testing.T) *repository.Repository {
	t.Helper()
	recs := []*tuple.Record{
		tuple.MustRecord(schema, "p1", 0, 0, []string{"male", "thirst weight loss blurred vision", "diabetes type two"}),
		tuple.MustRecord(schema, "p2", 0, 0, []string{"male", "thirst weight loss vision", "diabetes type one"}),
		tuple.MustRecord(schema, "p3", 0, 0, []string{"female", "fever cough aches", "seasonal flu"}),
		tuple.MustRecord(schema, "p4", 0, 0, []string{"male", "fever cough fatigue", "seasonal flu"}),
	}
	repo, err := repository.Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// gender+symptom -> diagnosis, the Section 2.2 motivating rule.
func ruleFixture() *rules.Set {
	set := rules.NewSet(3)
	set.MustAdd(&rules.Rule{
		Kind:      rules.KindCDD,
		Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 0, Kind: rules.Const, Value: "male", Toks: tokens.New("male")},
			{Attr: 1, Kind: rules.Interval, Min: 0, Max: 0.3},
		},
		DepMin: 0, DepMax: 0.4,
	})
	return set
}

func TestRuleImputerCompletePassThrough(t *testing.T) {
	ri := NewRuleImputer("CDD", repoFixture(t), ruleFixture(), DefaultConfig())
	r := tuple.MustRecord(schema, "x", 0, 0, []string{"male", "fever", "flu"})
	im := ri.Impute(r)
	if im.InstanceCount() != 1 {
		t.Fatal("complete record must have exactly one instance")
	}
	if im.Dists[2].Cands[0].Text != "flu" {
		t.Fatal("complete attribute must be passed through")
	}
}

func TestRuleImputerImputesDiagnosis(t *testing.T) {
	repo := repoFixture(t)
	ri := NewRuleImputer("CDD", repo, ruleFixture(), DefaultConfig())
	// a2 of Table 1: male with diabetes-like symptoms, diagnosis missing.
	a2 := tuple.MustRecord(schema, "a2", 0, 0, []string{"male", "thirst weight loss blurred vision", "-"})
	im := ri.Impute(a2)
	d := im.Dists[2]
	if len(d.Cands) == 0 || d.Cands[0].Text == "" {
		t.Fatalf("imputation failed: %+v", d)
	}
	// The diabetes diagnoses must be the candidates (samples p1 and p2
	// match the symptom constraint; flu samples do not).
	for _, c := range d.Cands {
		if !c.Toks.ContainsAny(tokens.New("diabetes")) {
			t.Errorf("unexpected candidate %q", c.Text)
		}
	}
	total := 0.0
	for _, c := range d.Cands {
		total += c.P
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("candidate probabilities sum to %v, want 1", total)
	}
}

func TestRuleImputerConstMismatchFails(t *testing.T) {
	repo := repoFixture(t)
	ri := NewRuleImputer("CDD", repo, ruleFixture(), DefaultConfig())
	// Female tuple: the male-conditioned CDD does not apply; imputation
	// must fail gracefully.
	f := tuple.MustRecord(schema, "f1", 0, 0, []string{"female", "thirst weight loss blurred vision", "-"})
	im := ri.Impute(f)
	d := im.Dists[2]
	if len(d.Cands) != 1 || d.Cands[0].Text != "" || d.Cands[0].P != 1 {
		t.Fatalf("expected FailedCandidate, got %+v", d)
	}
}

func TestRuleImputerMultipleRulesEquation4(t *testing.T) {
	// Two rules with different dependent intervals: frequencies must sum
	// across rules per Equation 4.
	repo := repoFixture(t)
	set := ruleFixture()
	set.MustAdd(&rules.Rule{
		Kind:      rules.KindDD,
		Dependent: 2,
		Determinants: []rules.Constraint{
			{Attr: 1, Kind: rules.Interval, Min: 0, Max: 0.3},
		},
		DepMin: 0, DepMax: 0.2,
	})
	ri := NewRuleImputer("CDD", repo, set, DefaultConfig())
	a2 := tuple.MustRecord(schema, "a2", 0, 0, []string{"male", "thirst weight loss blurred vision", "-"})
	im := ri.Impute(a2)
	d := im.Dists[2]
	if len(d.Cands) < 2 {
		t.Fatalf("expected multiple candidates, got %+v", d)
	}
	// Equation 4 reference computation: replicate by hand.
	dom := repo.Domain(2)
	freq := map[int]float64{}
	for _, rule := range set.ForDependent(2) {
		if !rule.AppliesTo(a2) {
			continue
		}
		for _, s := range repo.Samples() {
			if !rule.SampleMatches(a2, s) {
				continue
			}
			for _, ci := range dom.RangeByDistance(s.Tokens(2), rule.DepMin, rule.DepMax) {
				freq[ci]++
			}
		}
	}
	total := 0.0
	for _, f := range freq {
		total += f
	}
	for _, c := range d.Cands {
		ci := dom.Lookup(c.Text)
		want := freq[ci] / total
		if math.Abs(c.P-want) > 1e-9 {
			t.Errorf("candidate %q: P = %v, want %v", c.Text, c.P, want)
		}
	}
}

func TestRuleImputerDomainIndexEquivalence(t *testing.T) {
	repo := repoFixture(t)
	set := ruleFixture()
	a2 := tuple.MustRecord(schema, "a2", 0, 0, []string{"male", "thirst weight loss blurred vision", "-"})
	plain := NewRuleImputer("CDD", repo, set, DefaultConfig()).Impute(a2)
	idx := make([]*repository.Index, 3)
	for j := 0; j < 3; j++ {
		idx[j] = repo.Domain(j).BuildIndex(repo.Sample(0).Tokens(j))
	}
	indexed := NewRuleImputer("CDD", repo, set, DefaultConfig()).WithDomainIndexes(idx).Impute(a2)
	if len(plain.Dists[2].Cands) != len(indexed.Dists[2].Cands) {
		t.Fatalf("candidate counts differ: %d vs %d",
			len(plain.Dists[2].Cands), len(indexed.Dists[2].Cands))
	}
	for i := range plain.Dists[2].Cands {
		a, b := plain.Dists[2].Cands[i], indexed.Dists[2].Cands[i]
		if a.Text != b.Text || math.Abs(a.P-b.P) > 1e-9 {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestRuleImputerBreakdown(t *testing.T) {
	var b metrics.Breakdown
	ri := NewRuleImputer("CDD", repoFixture(t), ruleFixture(), DefaultConfig()).WithBreakdown(&b)
	a2 := tuple.MustRecord(schema, "a2", 0, 0, []string{"male", "thirst weight loss blurred vision", "-"})
	ri.Impute(a2)
	if b.Select < 0 || b.Impute <= 0 {
		t.Fatalf("breakdown not recorded: %+v", b)
	}
	if b.ER != 0 {
		t.Fatal("imputer must not charge ER time")
	}
}

func TestAccumulatorTruncation(t *testing.T) {
	repo := repoFixture(t)
	dom := repo.Domain(2)
	acc := NewAccumulator(dom, nil)
	for i := 0; i < dom.Len(); i++ {
		acc.AddSample(i, 0, 1) // every value suggests the whole domain
	}
	d := acc.Distribution(Config{MaxCandidates: 2})
	if len(d.Cands) != 2 {
		t.Fatalf("truncation failed: %d candidates", len(d.Cands))
	}
	total := 0.0
	for _, c := range d.Cands {
		total += c.P
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("truncated distribution sums to %v", total)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	repo := repoFixture(t)
	acc := NewAccumulator(repo.Domain(2), nil)
	if !acc.Empty() {
		t.Fatal("fresh accumulator must be empty")
	}
	d := acc.Distribution(DefaultConfig())
	if len(d.Cands) != 1 || d.Cands[0].Text != "" {
		t.Fatalf("empty accumulator must yield FailedCandidate, got %+v", d)
	}
}

func TestStreamImputerUsesTemporalNeighbors(t *testing.T) {
	// Window oldest-first: the most recent donor must dominate (con+ER
	// imputes from temporally near tuples, not most-similar ones).
	window := []*tuple.Record{
		tuple.MustRecord(schema, "w1", 0, 0, []string{"male", "thirst weight loss vision", "diabetes"}),
		tuple.MustRecord(schema, "w2", 0, 1, []string{"male", "fever cough", "flu"}),
		tuple.MustRecord(schema, "w3", 0, 2, []string{"male", "red eye itchy", "conjunctivitis"}),
	}
	si := NewStreamImputer(func() []*tuple.Record { return window }, DefaultConfig())
	si.MaxAvgDist = 1.0 // accept all donors; isolate recency weighting
	r := tuple.MustRecord(schema, "q", 1, 3, []string{"male", "thirst weight loss blurred vision", "-"})
	im := si.Impute(r)
	d := im.Dists[2]
	if len(d.Cands) == 0 {
		t.Fatal("stream imputation returned nothing")
	}
	best := d.Cands[0]
	for _, c := range d.Cands[1:] {
		if c.P > best.P {
			best = c
		}
	}
	if best.Text != "conjunctivitis" {
		t.Fatalf("best candidate = %q, want the most recent donor's value", best.Text)
	}
}

func TestStreamImputerValueConstraint(t *testing.T) {
	// A recent but wildly dissimilar donor is rejected by the value
	// constraint; an older compatible donor is used instead.
	window := []*tuple.Record{
		tuple.MustRecord(schema, "w1", 0, 0, []string{"male", "thirst weight loss vision", "diabetes"}),
		tuple.MustRecord(schema, "w2", 0, 1, []string{"zz", "qq ww ee", "flu"}),
	}
	si := NewStreamImputer(func() []*tuple.Record { return window }, DefaultConfig())
	si.MaxAvgDist = 0.5
	si.TopK = 1
	r := tuple.MustRecord(schema, "q", 1, 3, []string{"male", "thirst weight loss blurred vision", "-"})
	im := si.Impute(r)
	if got := im.Dists[2].Cands[0].Text; got != "diabetes" {
		t.Fatalf("constraint must reject w2; got %q", got)
	}
}

func TestStreamImputerNoDonors(t *testing.T) {
	si := NewStreamImputer(func() []*tuple.Record { return nil }, DefaultConfig())
	r := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever", "-"})
	im := si.Impute(r)
	if im.Dists[2].Cands[0].Text != "" {
		t.Fatal("no donors must yield FailedCandidate")
	}
	// Donor missing the needed attribute is useless.
	window := []*tuple.Record{
		tuple.MustRecord(schema, "w1", 0, 0, []string{"male", "fever", "-"}),
	}
	si2 := NewStreamImputer(func() []*tuple.Record { return window }, DefaultConfig())
	if si2.Impute(r).Dists[2].Cands[0].Text != "" {
		t.Fatal("donor without the attribute must not contribute")
	}
}

func TestStreamImputerSkipsSelf(t *testing.T) {
	r := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever", "-"})
	self := tuple.MustRecord(schema, "q", 0, 0, []string{"male", "fever", "flu"})
	si := NewStreamImputer(func() []*tuple.Record { return []*tuple.Record{self} }, DefaultConfig())
	if si.Impute(r).Dists[2].Cands[0].Text != "" {
		t.Fatal("a tuple must not impute from itself (same RID)")
	}
}

func TestStreamImputerDeterministicTies(t *testing.T) {
	// Two donors with identical similarity: order must be stable by RID.
	mk := func(rid, diag string) *tuple.Record {
		return tuple.MustRecord(schema, rid, 0, 0, []string{"male", "fever cough", diag})
	}
	window := []*tuple.Record{mk("b", "flu"), mk("a", "cold")}
	si := NewStreamImputer(func() []*tuple.Record { return window }, DefaultConfig())
	r := tuple.MustRecord(schema, "q", 1, 0, []string{"male", "fever cough", "-"})
	im1 := si.Impute(r)
	im2 := si.Impute(r)
	if fmt.Sprint(im1.Dists[2]) != fmt.Sprint(im2.Dists[2]) {
		t.Fatal("stream imputation must be deterministic")
	}
}

func TestImputerInterfaceCompliance(t *testing.T) {
	var _ Imputer = (*RuleImputer)(nil)
	var _ Imputer = (*StreamImputer)(nil)
	if NewRuleImputer("CDD", repoFixture(t), ruleFixture(), DefaultConfig()).Name() != "CDD" {
		t.Fatal("RuleImputer name wrong")
	}
	if NewStreamImputer(func() []*tuple.Record { return nil }, DefaultConfig()).Name() != "con" {
		t.Fatal("StreamImputer name wrong")
	}
}
