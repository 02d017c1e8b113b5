package core

import (
	"fmt"
	"math/rand"
	"testing"

	"terids/internal/metrics"
	"terids/internal/repository"
	"terids/internal/tuple"
)

var testSchema = tuple.MustSchema("Gender", "Symptom", "Diagnosis", "Treatment")

// fixture bundles a deterministic health-forum style workload: a complete
// repository, a two-stream record sequence with injected missing values,
// and the keyword set.
type fixture struct {
	repo    *repository.Repository
	stream  []*tuple.Record
	shared  *Shared
	nextRID int
}

type disease struct {
	symptoms  []string
	diagnosis string
	treatment string
}

var diseases = []disease{
	{[]string{"thirst", "weight", "loss", "blurred", "vision"}, "diabetes mellitus", "insulin diet"},
	{[]string{"fever", "cough", "fatigue", "aches"}, "seasonal flu", "rest fluids"},
	{[]string{"red", "eye", "itchy", "tears"}, "conjunctivitis acute", "eye drops"},
	{[]string{"headache", "nausea", "light", "sensitivity"}, "migraine chronic", "dark room"},
}

func (f *fixture) record(r *rand.Rand, stream int, seq int64, dz disease, missing int) *tuple.Record {
	gender := []string{"male", "female"}[r.Intn(2)]
	drop := r.Intn(len(dz.symptoms))
	sym := ""
	for i, s := range dz.symptoms {
		if i != drop {
			sym += s + " "
		}
	}
	vals := []string{gender, sym, dz.diagnosis, dz.treatment}
	// Mark `missing` random attributes (never Symptom, which anchors the
	// rules) as absent.
	for m := 0; m < missing; m++ {
		j := []int{0, 2, 3}[r.Intn(3)]
		vals[j] = tuple.Missing
	}
	f.nextRID++
	return tuple.MustRecord(testSchema, fmt.Sprintf("r%03d", f.nextRID), stream, seq, vals)
}

func newFixture(t *testing.T, seed int64, repoSize, streamLen int, missingRate float64) *fixture {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	f := &fixture{}
	var samples []*tuple.Record
	for i := 0; i < repoSize; i++ {
		dz := diseases[i%len(diseases)]
		gender := []string{"male", "female"}[i%2]
		drop := r.Intn(len(dz.symptoms))
		sym := ""
		for k, s := range dz.symptoms {
			if k != drop {
				sym += s + " "
			}
		}
		samples = append(samples, tuple.MustRecord(testSchema, fmt.Sprintf("s%03d", i), 0, 0,
			[]string{gender, sym, dz.diagnosis, dz.treatment}))
	}
	repo, err := repository.Build(testSchema, samples)
	if err != nil {
		t.Fatal(err)
	}
	f.repo = repo
	for i := 0; i < streamLen; i++ {
		dz := diseases[r.Intn(len(diseases))]
		missing := 0
		if r.Float64() < missingRate {
			missing = 1 + r.Intn(2)
		}
		f.stream = append(f.stream, f.record(r, i%2, int64(i), dz, missing))
	}
	sh, err := Prepare(repo, DefaultPrepareConfig([]string{"diabetes", "flu"}))
	if err != nil {
		t.Fatal(err)
	}
	f.shared = sh
	return f
}

func testConfig() Config {
	return Config{
		Keywords:     []string{"diabetes", "flu"},
		Gamma:        2.0, // of d=4
		Alpha:        0.5,
		WindowSize:   20,
		Streams:      2,
		CellsPerDim:  4,
		TrackPruning: true,
	}
}

func TestResultSet(t *testing.T) {
	rs := NewResultSet()
	a := tuple.MustRecord(testSchema, "a", 0, 0, []string{"x", "y", "z", "w"})
	b := tuple.MustRecord(testSchema, "b", 1, 1, []string{"x", "y", "z", "w"})
	c := tuple.MustRecord(testSchema, "c", 1, 2, []string{"x", "y", "z", "w"})
	rs.Add(newPair(b, a, 0.9)) // normalization check
	rs.Add(newPair(a, c, 0.8))
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rs.Len())
	}
	if !rs.Has("a", "b") || !rs.Has("b", "a") {
		t.Fatal("Has must be order-insensitive")
	}
	pairs := rs.Pairs()
	if pairs[0].A.RID != "a" || pairs[0].B.RID != "b" {
		t.Fatalf("Pairs[0] = %v; normalization or ordering broken", pairs[0])
	}
	if n := rs.RemoveRID("a"); n != 2 {
		t.Fatalf("RemoveRID(a) removed %d, want 2", n)
	}
	if rs.Len() != 0 {
		t.Fatal("all pairs involved a")
	}
	if n := rs.RemoveRID("zzz"); n != 0 {
		t.Fatal("removing unknown RID must be a no-op")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(4); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Gamma: 0, Alpha: 0.5, WindowSize: 5, Streams: 2},
		{Gamma: 4, Alpha: 0.5, WindowSize: 5, Streams: 2},
		{Gamma: 2, Alpha: 1, WindowSize: 5, Streams: 2},
		{Gamma: 2, Alpha: -0.1, WindowSize: 5, Streams: 2},
		{Gamma: 2, Alpha: 0.5, WindowSize: 0, Streams: 2},
		{Gamma: 2, Alpha: 0.5, WindowSize: 5, Streams: 1},
		{Gamma: 2, Alpha: 0.5, WindowSize: 5, Streams: 2, CellsPerDim: -1},
	}
	for i, c := range bad {
		if err := c.Validate(4); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Defaults fill in.
	c := Config{Gamma: 2, Alpha: 0.5, WindowSize: 5, Streams: 2}
	if err := c.Validate(4); err != nil {
		t.Fatal(err)
	}
	if c.CellsPerDim != 5 || c.Impute.MaxCandidates == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestPrepare(t *testing.T) {
	f := newFixture(t, 1, 40, 0, 0)
	sh := f.shared
	if sh.Rules.Len() == 0 {
		t.Fatal("no rules detected")
	}
	if sh.DDRules.Len() == 0 {
		t.Fatal("no DD rules detected")
	}
	if len(sh.CDDIdx) != 4 || sh.DRIdx.Len() != 40 {
		t.Fatal("indexes not built")
	}
	if sh.PivotTime <= 0 || sh.DetectTime <= 0 {
		t.Fatal("offline timings not recorded")
	}
	// Empty repository must fail.
	empty, _ := repository.Build(testSchema, nil)
	if _, err := Prepare(empty, DefaultPrepareConfig(nil)); err == nil {
		t.Fatal("Prepare over empty repository must fail")
	}
}

// runAll feeds the full stream to a resolver and returns the final result
// keys plus pair count over time.
func runAll(t *testing.T, res Resolver, recs []*tuple.Record) map[metrics.PairKey]bool {
	t.Helper()
	for _, r := range recs {
		if _, err := res.Advance(r); err != nil {
			t.Fatalf("%s: Advance(%s): %v", res.Name(), r.RID, err)
		}
	}
	return res.Results().Keys()
}

// TestTERIDSMatchesNaive is the headline correctness property: the indexed,
// pruned TER-iDS processor must produce exactly the entity set of the
// straightforward method (same imputation, exhaustive ER) at every
// timestamp.
func TestTERIDSMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		f := newFixture(t, seed, 40, 120, 0.4)
		cfg := testConfig()
		ter, err := NewProcessor(f.shared, cfg)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewBaseline(f.shared, cfg, Naive)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range f.stream {
			if _, err := ter.Advance(r); err != nil {
				t.Fatal(err)
			}
			if _, err := naive.Advance(r); err != nil {
				t.Fatal(err)
			}
			// Compare live sets every few steps (and at the end).
			if i%10 == 9 || i == len(f.stream)-1 {
				tk, nk := ter.Results().Keys(), naive.Results().Keys()
				if len(tk) != len(nk) {
					t.Fatalf("seed %d step %d: TER-iDS has %d pairs, naive %d",
						seed, i, len(tk), len(nk))
				}
				for k := range nk {
					if !tk[k] {
						t.Fatalf("seed %d step %d: TER-iDS missed pair %v", seed, i, k)
					}
				}
			}
		}
	}
}

// TestBaselinesShareGroundTruthWithExhaustiveER verifies that Ij+GER (same
// imputer family, grid ER) equals naive too, and that CDD+ER trivially
// equals naive.
func TestBaselinesShareGroundTruthWithExhaustiveER(t *testing.T) {
	f := newFixture(t, 7, 40, 80, 0.3)
	cfg := testConfig()
	naive, _ := NewBaseline(f.shared, cfg, Naive)
	ij, _ := NewBaseline(f.shared, cfg, IjGER)
	cdd, _ := NewBaseline(f.shared, cfg, CDDER)
	nk := runAll(t, naive, f.stream)
	ik := runAll(t, ij, f.stream)
	ck := runAll(t, cdd, f.stream)
	if len(ik) != len(nk) {
		t.Fatalf("Ij+GER %d pairs, naive %d", len(ik), len(nk))
	}
	for k := range nk {
		if !ik[k] {
			t.Fatalf("Ij+GER missed %v", k)
		}
		if !ck[k] {
			t.Fatalf("CDD+ER missed %v", k)
		}
	}
	if len(ck) != len(nk) {
		t.Fatalf("CDD+ER %d pairs, naive %d", len(ck), len(nk))
	}
}

func TestWindowEvictionRemovesPairs(t *testing.T) {
	f := newFixture(t, 11, 40, 0, 0)
	cfg := testConfig()
	cfg.WindowSize = 3
	ter, err := NewProcessor(f.shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	dz := diseases[0] // diabetes: keyword-bearing
	// Two matching tuples on different streams.
	a := f.record(r, 0, 0, dz, 0)
	b := f.record(r, 1, 1, dz, 0)
	ter.Advance(a)
	ter.Advance(b)
	if !ter.Results().Has(a.RID, b.RID) {
		t.Fatal("expected the matching pair")
	}
	// Push 3 more tuples through stream 0: a expires.
	for i := 0; i < 3; i++ {
		ter.Advance(f.record(r, 0, int64(2+i), diseases[2], 0))
	}
	if ter.Results().Has(a.RID, b.RID) {
		t.Fatal("pair must be evicted once a expires")
	}
	if _, ok := ter.Grid().Get(a.RID); ok {
		t.Fatal("expired tuple must leave the grid")
	}
}

func TestSameStreamPairsExcluded(t *testing.T) {
	f := newFixture(t, 13, 40, 0, 0)
	ter, _ := NewProcessor(f.shared, testConfig())
	r := rand.New(rand.NewSource(5))
	dz := diseases[0]
	a := f.record(r, 0, 0, dz, 0)
	b := f.record(r, 0, 1, dz, 0) // same stream
	ter.Advance(a)
	pairs, _ := ter.Advance(b)
	if len(pairs) != 0 {
		t.Fatalf("same-stream tuples must not pair: %v", pairs)
	}
}

func TestTopicFiltering(t *testing.T) {
	// With keywords that never occur, no pairs may be emitted.
	f := newFixture(t, 17, 40, 60, 0.3)
	sh, err := Prepare(f.repo, DefaultPrepareConfig([]string{"nonexistentkeyword"}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Keywords = []string{"nonexistentkeyword"}
	ter, _ := NewProcessor(sh, cfg)
	keys := runAll(t, ter, f.stream)
	if len(keys) != 0 {
		t.Fatalf("no tuple carries the keyword, got %d pairs", len(keys))
	}
	st := ter.PruneStats()
	if st.Topic == 0 {
		t.Fatal("topic pruning must fire")
	}
	if st.Refined != 0 {
		t.Fatal("nothing should be refined")
	}
}

func TestEmptyKeywordSetMeansAllTopics(t *testing.T) {
	// K = domain of all keywords is modeled as the empty keyword set with
	// topic checks disabled... the paper models it as K = whole domain; we
	// verify a keyword present in every diagnosis behaves that way.
	f := newFixture(t, 19, 40, 40, 0.2)
	cfg := testConfig()
	ter, _ := NewProcessor(f.shared, cfg)
	naive, _ := NewBaseline(f.shared, cfg, Naive)
	tk := runAll(t, ter, f.stream)
	nk := runAll(t, naive, f.stream)
	if len(tk) != len(nk) {
		t.Fatalf("TER-iDS %d pairs, naive %d", len(tk), len(nk))
	}
}

func TestPruneStatsAccounting(t *testing.T) {
	f := newFixture(t, 23, 40, 100, 0.3)
	ter, _ := NewProcessor(f.shared, testConfig())
	runAll(t, ter, f.stream)
	st := ter.PruneStats()
	if st.Considered == 0 {
		t.Fatal("no pairs considered")
	}
	if st.Topic+st.SimUB+st.ProbUB+st.InstPair+st.Refined != st.Considered {
		t.Fatalf("pruning accounting leak: %+v", st)
	}
	_, _, _, _, total := st.Power()
	if total <= 0 || total > 100 {
		t.Fatalf("pruning power %v out of range", total)
	}
}

func TestBreakdownRecorded(t *testing.T) {
	f := newFixture(t, 29, 40, 60, 0.5)
	ter, _ := NewProcessor(f.shared, testConfig())
	runAll(t, ter, f.stream)
	b := ter.Breakdown()
	if b.ER <= 0 {
		t.Fatalf("ER cost missing: %+v", b)
	}
	if b.Impute <= 0 {
		t.Fatalf("imputation cost missing (stream has missing attrs): %+v", b)
	}
}

func TestForeignSchemaRejected(t *testing.T) {
	f := newFixture(t, 31, 40, 0, 0)
	ter, _ := NewProcessor(f.shared, testConfig())
	other := tuple.MustSchema("Gender", "Symptom", "Diagnosis", "Treatment")
	alien := tuple.MustRecord(other, "x", 0, 0, []string{"male", "fever", "flu", "rest"})
	if _, err := ter.Advance(alien); err == nil {
		t.Fatal("foreign schema must be rejected")
	}
	nv, _ := NewBaseline(f.shared, testConfig(), Naive)
	if _, err := nv.Advance(alien); err == nil {
		t.Fatal("baseline must also reject foreign schema")
	}
}

func TestProcessorRejectsBadStream(t *testing.T) {
	f := newFixture(t, 85, 40, 0, 0)
	ter, err := NewProcessor(f.shared, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	bad := f.record(r, 0, 0, diseases[0], 0)
	bad.Stream = 9
	if _, err := ter.Advance(bad); err == nil {
		t.Fatal("out-of-range stream must error")
	}
}

func TestAllBaselineKindsRun(t *testing.T) {
	f := newFixture(t, 37, 40, 50, 0.3)
	for _, kind := range []BaselineKind{IjGER, CDDER, DDER, ErER, ConER, Naive} {
		b, err := NewBaseline(f.shared, testConfig(), kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if b.Name() != kind.String() {
			t.Fatalf("name mismatch: %s vs %s", b.Name(), kind)
		}
		runAll(t, b, f.stream)
	}
	if _, err := NewBaseline(f.shared, testConfig(), BaselineKind(99)); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

// TestDynamicRepositoryExtension pins Section 5.5 against a rebuild: after
// AddSamples, imputed distributions and emitted pairs equal those of a
// Shared prepared from scratch over the extended repository. The domain
// indexes' neighbour-set memos are warm when the repository grows, and the
// new sample's Symptom value is new to the domain and inside the dependent
// interval of the rules that impute Symptom, so state surviving the
// extension would leave that value out.
func TestDynamicRepositoryExtension(t *testing.T) {
	f := newFixture(t, 41, 30, 0, 0)
	sh := f.shared
	const symptom = 1
	var probes []*tuple.Record
	for i := 0; i < 16; i++ {
		dz := diseases[i%len(diseases)]
		vals := []string{[]string{"male", "female"}[i/2%2], tuple.Missing, dz.diagnosis, dz.treatment}
		if i >= 8 {
			vals[3] = tuple.Missing
		}
		probes = append(probes, tuple.MustRecord(testSchema, fmt.Sprintf("q%02d", i), i/4%2, int64(i), vals))
	}
	step, err := NewStep(sh, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range probes {
		step.Impute(q)
	}
	if sh.DomIdx[symptom].MemoisedSets() == 0 {
		t.Fatal("fixture: imputing the probes memoised no Symptom neighbour set")
	}

	// Every repository Symptom drops one of the disease's words; all five is
	// new, and 0.2 away from each four-word diabetes value.
	const allFive = "thirst weight loss blurred vision"
	if sh.Repo.Domain(symptom).Lookup(allFive) != -1 {
		t.Fatalf("fixture: %q is already in the domain", allFive)
	}
	before := sh.DRIdx.Len()
	extra := tuple.MustRecord(testSchema, "dyn1", 0, 0,
		[]string{"male", allFive, "diabetes mellitus", "insulin diet"})
	cfg := DefaultPrepareConfig([]string{"diabetes", "flu"})
	if err := sh.AddSamples(true, cfg.Detect, extra); err != nil {
		t.Fatal(err)
	}
	if sh.DRIdx.Len() != before+1 {
		t.Fatal("DR-index not extended")
	}
	if sh.Repo.Len() != 31 {
		t.Fatal("repository not extended")
	}

	rebuilt, err := repository.Build(testSchema, sh.Repo.Samples())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Selection = sh.Sel
	fresh, err := Prepare(rebuilt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshStep, err := NewStep(fresh, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawNew := false
	for _, q := range probes {
		got, _ := step.Impute(q)
		want, _ := freshStep.Impute(q)
		for j := range want.Dists {
			g, w := got.Dists[j].Cands, want.Dists[j].Cands
			if len(g) != len(w) {
				t.Fatalf("%s attr %d: %d candidates after AddSamples, %d from a fresh Prepare", q.RID, j, len(g), len(w))
			}
			for i := range w {
				if g[i].Text != w[i].Text || g[i].P != w[i].P {
					t.Fatalf("%s attr %d candidate %d: {%q %v} after AddSamples, {%q %v} from a fresh Prepare",
						q.RID, j, i, g[i].Text, g[i].P, w[i].Text, w[i].P)
				}
				sawNew = sawNew || (j == symptom && w[i].Text == allFive)
			}
		}
	}
	if !sawNew {
		t.Fatalf("fixture: no probe has %q as a Symptom candidate, so the extension is not observable", allFive)
	}

	ter, err := NewProcessor(sh, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewProcessor(fresh, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for _, q := range probes {
		got, err := ter.Advance(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Advance(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs after AddSamples, %d from a fresh Prepare", q.RID, len(got), len(want))
		}
		for i := range want {
			if got[i].Key() != want[i].Key() || got[i].Prob != want[i].Prob {
				t.Fatalf("%s pair %d: %v %v after AddSamples, %v %v from a fresh Prepare",
					q.RID, i, got[i].Key(), got[i].Prob, want[i].Key(), want[i].Prob)
			}
		}
		emitted += len(want)
	}
	if emitted == 0 {
		t.Fatal("fixture: the probes emit no pair")
	}
}

func TestBaselineKindString(t *testing.T) {
	if IjGER.String() != "Ij+GER" || ConER.String() != "con+ER" || Naive.String() != "naive" {
		t.Fatal("BaselineKind strings wrong")
	}
	if BaselineKind(42).String() == "" {
		t.Fatal("unknown kind must render")
	}
}
