package tuple

import (
	"math"
	"strings"
	"testing"

	"terids/internal/tokens"
)

func TestNewSchema(t *testing.T) {
	s, err := NewSchema("Gender", "Symptom", "Diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if s.D() != 3 {
		t.Fatalf("D = %d, want 3", s.D())
	}
	if s.Attr(1) != "Symptom" {
		t.Fatalf("Attr(1) = %q", s.Attr(1))
	}
	if s.Index("Diagnosis") != 2 {
		t.Fatalf("Index(Diagnosis) = %d", s.Index("Diagnosis"))
	}
	if s.Index("missing") != -1 {
		t.Fatal("unknown attribute must return -1")
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty attribute name must fail")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate attribute must fail")
	}
}

func TestSchemaAttrsIsCopy(t *testing.T) {
	s := MustSchema("a", "b")
	attrs := s.Attrs()
	attrs[0] = "mutated"
	if s.Attr(0) != "a" {
		t.Fatal("Attrs must return a copy")
	}
}

func TestNewRecord(t *testing.T) {
	s := MustSchema("Gender", "Symptom", "Diagnosis", "Treatment")
	r, err := NewRecord(s, "a2", 0, 7, []string{"male", "loss of weight, blurred vision", "-", ""})
	if err != nil {
		t.Fatal(err)
	}
	if r.IsComplete() {
		t.Error("record with missing attrs must not be complete")
	}
	if r.MissingCount() != 2 {
		t.Errorf("MissingCount = %d, want 2", r.MissingCount())
	}
	if got := r.MissingAttrs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("MissingAttrs = %v, want [2 3]", got)
	}
	if r.Value(2) != Missing || r.Value(3) != Missing {
		t.Error("missing values must normalize to the Missing marker")
	}
	if !r.Tokens(1).ContainsAny(tokens.New("blurred")) {
		t.Error("tokens must be precomputed")
	}
	if r.Tokens(2) != nil {
		t.Error("missing attribute must have nil tokens")
	}
	if r.EntityID != -1 {
		t.Error("default EntityID must be -1")
	}
}

func TestNewRecordErrors(t *testing.T) {
	s := MustSchema("a", "b")
	if _, err := NewRecord(nil, "x", 0, 0, []string{"v"}); err == nil {
		t.Error("nil schema must fail")
	}
	if _, err := NewRecord(s, "x", 0, 0, []string{"only one"}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestRecordImmutableInput(t *testing.T) {
	s := MustSchema("a")
	in := []string{"hello"}
	r := MustRecord(s, "x", 0, 0, in)
	in[0] = "mutated"
	if r.Value(0) != "hello" {
		t.Fatal("record must copy its input values")
	}
}

func TestAllTokensAndKeywords(t *testing.T) {
	s := MustSchema("a", "b", "c")
	r := MustRecord(s, "x", 0, 0, []string{"diabetes care", "-", "drug therapy"})
	all := r.AllTokens()
	for _, tok := range []string{"diabetes", "care", "drug", "therapy"} {
		if !all.ContainsAny(tokens.New(tok)) {
			t.Errorf("AllTokens missing %q", tok)
		}
	}
	if !r.ContainsAnyKeyword(tokens.New("diabetes")) {
		t.Error("keyword diabetes must be found")
	}
	if r.ContainsAnyKeyword(tokens.New("flu")) {
		t.Error("keyword flu must not be found")
	}
}

func TestSim(t *testing.T) {
	s := MustSchema("a", "b")
	r1 := MustRecord(s, "x", 0, 0, []string{"a b c", "x y"})
	r2 := MustRecord(s, "y", 1, 1, []string{"a b c", "x z"})
	// attr a: identical -> 1; attr b: {x,y} vs {x,z} -> 1/3.
	want := 1 + 1.0/3.0
	if got := Sim(r1, r2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sim = %v, want %v", got, want)
	}
}

func TestAttrDistNormalizeTruncate(t *testing.T) {
	d := AttrDist{Cands: []Candidate{
		{Text: "a", Toks: tokens.New("a"), P: 2},
		{Text: "b", Toks: tokens.New("b"), P: 1},
		{Text: "c", Toks: tokens.New("c"), P: 1},
	}}
	d.Normalize()
	if math.Abs(d.Cands[0].P-0.5) > 1e-12 {
		t.Fatalf("normalized P = %v, want 0.5", d.Cands[0].P)
	}
	d.Truncate(2)
	if len(d.Cands) != 2 {
		t.Fatalf("Truncate kept %d, want 2", len(d.Cands))
	}
	total := d.Cands[0].P + d.Cands[1].P
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("after truncate probabilities sum to %v, want 1", total)
	}
	if d.Cands[0].Text != "a" {
		t.Fatal("truncate must keep the most probable candidate")
	}
}

func TestTruncateDeterministicTies(t *testing.T) {
	d := AttrDist{Cands: []Candidate{
		{Text: "z", P: 1}, {Text: "a", P: 1}, {Text: "m", P: 1},
	}}
	d.Truncate(2)
	if d.Cands[0].Text != "a" || d.Cands[1].Text != "m" {
		t.Fatalf("tie-break must be lexicographic, got %v", d.Cands)
	}
}

func TestNormalizeZeroMass(t *testing.T) {
	d := AttrDist{Cands: []Candidate{{Text: "a", P: 0}}}
	d.Normalize() // must not panic or NaN
	if d.Cands[0].P != 0 {
		t.Fatal("zero-mass distribution must stay zero")
	}
}

func TestFromCompleteAndInstances(t *testing.T) {
	s := MustSchema("a", "b")
	r := MustRecord(s, "x", 0, 0, []string{"alpha beta", "gamma"})
	im := FromComplete(r)
	if im.InstanceCount() != 1 {
		t.Fatalf("InstanceCount = %d, want 1", im.InstanceCount())
	}
	if math.Abs(im.TotalMass()-1) > 1e-12 {
		t.Errorf("TotalMass = %v, want 1", im.TotalMass())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustSchema("title", "authors")
	r1 := MustRecord(s, "a1", 0, 0, []string{"deep learning", "-"})
	r1.EntityID = 42
	r2 := MustRecord(s, "b1", 1, 1, []string{"streaming er", "ren lian"})
	var buf strings.Builder
	if err := WriteCSV(&buf, s, []*Record{r1, r2}); err != nil {
		t.Fatal(err)
	}
	schema, recs, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if schema.D() != 2 || schema.Attr(0) != "title" {
		t.Fatalf("schema round-trip failed: %v", schema.Attrs())
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].EntityID != 42 || !recs[0].IsMissing(1) {
		t.Errorf("record 0 round-trip failed: %v", recs[0])
	}
	if recs[1].Stream != 1 || recs[1].Value(1) != "ren lian" {
		t.Errorf("record 1 round-trip failed: %v", recs[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bad,header\n",
		"rid,stream,entity,a\nx,notanint,0,v\n",
		"rid,stream,entity,a\nx,0,notanint,v\n",
	}
	for _, c := range cases {
		if _, _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) must fail", c)
		}
	}
}
