package prune

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"terids/internal/agg"
	"terids/internal/pivot"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("A", "B")

// sel2 builds a fixed two-attribute pivot selection for tests.
func sel2() *pivot.Selection {
	return &pivot.Selection{PerAttr: []pivot.AttrPivots{
		{Attr: 0, Texts: []string{"p q"}, Toks: []tokens.Set{tokens.New("p", "q")}},
		{Attr: 1, Texts: []string{"m n"}, Toks: []tokens.Set{tokens.New("m", "n")}},
	}}
}

func completeProfile(t *testing.T, rid, a, b string, keywords tokens.Set) *Profile {
	t.Helper()
	r := tuple.MustRecord(schema, rid, 0, 0, []string{a, b})
	return BuildProfile(tuple.FromComplete(r), sel2(), keywords)
}

// imputedProfile builds a profile with a candidate distribution on
// attribute 1.
func imputedProfile(t *testing.T, rid, a string, cands []tuple.Candidate, keywords tokens.Set) *Profile {
	t.Helper()
	r := tuple.MustRecord(schema, rid, 0, 0, []string{a, "-"})
	im := &tuple.Imputed{R: r, Dists: []tuple.AttrDist{
		tuple.Point(a, tokens.Tokenize(a)),
		{Cands: cands},
	}}
	return BuildProfile(im, sel2(), keywords)
}

func TestBuildProfileComplete(t *testing.T) {
	kw := tokens.New("diabetes")
	p := completeProfile(t, "r1", "p q", "diabetes care", kw)
	// Attribute 0 equals the pivot: distance interval [0,0], expectation 0.
	if p.Dist[0][0].Lo != 0 || p.Dist[0][0].Hi != 0 || p.Exp[0][0] != 0 {
		t.Fatalf("attr 0 pivot distances wrong: %+v exp %v", p.Dist[0][0], p.Exp[0][0])
	}
	if p.Size[0].Lo != 2 || p.Size[0].Hi != 2 {
		t.Fatalf("attr 0 size interval wrong: %+v", p.Size[0])
	}
	if !p.MayKW || !p.KW.Get(0) {
		t.Fatal("keyword flags wrong")
	}
	if len(p.inst) != 1 || p.inst[0] != (instance{p: 1, kw: true}) {
		t.Fatalf("instances wrong: %+v", p.inst)
	}
}

func TestBuildProfileImputed(t *testing.T) {
	kw := tokens.New("flu")
	p := imputedProfile(t, "r1", "p q", []tuple.Candidate{
		{Text: "m n", Toks: tokens.New("m", "n"), P: 0.5},        // dist to piv 0
		{Text: "x y z", Toks: tokens.New("x", "y", "z"), P: 0.5}, // dist 1
	}, kw)
	iv := p.Dist[1][0]
	if iv.Lo != 0 || iv.Hi != 1 {
		t.Fatalf("imputed distance interval = %+v, want [0,1]", iv)
	}
	if math.Abs(p.Exp[1][0]-0.5) > 1e-12 {
		t.Fatalf("expectation = %v, want 0.5", p.Exp[1][0])
	}
	if p.Size[1].Lo != 2 || p.Size[1].Hi != 3 {
		t.Fatalf("size interval = %+v", p.Size[1])
	}
	if p.MayKW {
		t.Fatal("no flu keyword anywhere")
	}
	if len(p.inst) != 2 {
		t.Fatalf("instances = %d, want 2", len(p.inst))
	}
}

func TestTopicPrune(t *testing.T) {
	kw := tokens.New("diabetes")
	with := completeProfile(t, "a", "diabetes", "x", kw)
	without := completeProfile(t, "b", "flu", "x", kw)
	without2 := completeProfile(t, "c", "cold", "y", kw)
	if TopicPrune(with, without) {
		t.Fatal("pair with one keyword side must survive")
	}
	if !TopicPrune(without, without2) {
		t.Fatal("pair with no keywords must be pruned")
	}
}

func TestSimUpperBoundExample5(t *testing.T) {
	// Reconstruct Example 5's size-driven bound on a 3-attribute schema.
	s3 := tuple.MustSchema("A", "B", "C")
	sel := &pivot.Selection{PerAttr: []pivot.AttrPivots{
		{Attr: 0, Texts: []string{"zz"}, Toks: []tokens.Set{tokens.New("zz")}},
		{Attr: 1, Texts: []string{"zz"}, Toks: []tokens.Set{tokens.New("zz")}},
		{Attr: 2, Texts: []string{"zz"}, Toks: []tokens.Set{tokens.New("zz")}},
	}}
	mkToks := func(n int, prefix string) tokens.Set {
		var ts []string
		for i := 0; i < n; i++ {
			ts = append(ts, fmt.Sprintf("%s%d", prefix, i))
		}
		return tokens.New(ts...)
	}
	mk := func(rid string, na, nb int, ncLo, ncHi int, prefix string) *Profile {
		r := tuple.MustRecord(s3, rid, 0, 0, []string{"x", "y", "-"})
		im := &tuple.Imputed{R: r, Dists: []tuple.AttrDist{
			tuple.Point("a", mkToks(na, prefix+"a")),
			tuple.Point("b", mkToks(nb, prefix+"b")),
			{Cands: []tuple.Candidate{
				{Toks: mkToks(ncLo, prefix+"c"), P: 0.5},
				{Toks: mkToks(ncHi, prefix+"c"), P: 0.5},
			}},
		}}
		return BuildProfile(im, sel, nil)
	}
	r1 := mk("r1", 10, 7, 5, 7, "u")
	r2 := mk("r2", 8, 10, 10, 12, "v")
	// Example 5: 8/10 + 7/10 + 7/10 = 2.2. Token sets are disjoint, so the
	// pivot bound cannot beat the size bound here (pivot distances all 1).
	if got := SimUpperBound(r1.Bounds, r2.Bounds); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("SimUpperBound = %v, want 2.2", got)
	}
	if !SimPrune(r1.Bounds, r2.Bounds, 2.2) {
		t.Fatal("pair must prune at gamma = 2.2")
	}
	if SimPrune(r1.Bounds, r2.Bounds, 2.1) {
		t.Fatal("pair must survive at gamma = 2.1")
	}
}

func randomImputed(r *rand.Rand, rid string, stream int) *tuple.Imputed {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	randToks := func() tokens.Set {
		n := 1 + r.Intn(4)
		var ts []string
		for i := 0; i < n; i++ {
			ts = append(ts, vocab[r.Intn(len(vocab))])
		}
		return tokens.New(ts...)
	}
	rec := tuple.MustRecord(schema, rid, stream, 0, []string{"x", "-"})
	nc := 1 + r.Intn(3)
	dist := tuple.AttrDist{}
	for i := 0; i < nc; i++ {
		toks := randToks()
		dist.Cands = append(dist.Cands, tuple.Candidate{Text: toks.String(), Toks: toks, P: 1})
	}
	dist.Normalize()
	return &tuple.Imputed{R: rec, Dists: []tuple.AttrDist{
		tuple.Point("first", randToks()),
		dist,
	}}
}

// TestBoundsSafety is the central safety property: for random imputed
// pairs, (1) ub_sim dominates every instance-pair similarity, (2) UB_Pr
// dominates the exact probability, and (3) any pruned pair has exact
// probability <= alpha.
func TestBoundsSafety(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	kw := tokens.New("a", "e")
	sel := sel2()
	for trial := 0; trial < 3000; trial++ {
		pa := BuildProfile(randomImputed(r, "ra", 0), sel, kw)
		pb := BuildProfile(randomImputed(r, "rb", 1), sel, kw)
		gamma := r.Float64() * 2
		alpha := r.Float64()

		ub := SimUpperBound(pa.Bounds, pb.Bounds)
		maxSim := 0.0
		for _, ia := range oracleInstances(pa.Im, kw) {
			for _, ib := range oracleInstances(pb.Im, kw) {
				if s := oracleSim(ia, ib); s > maxSim {
					maxSim = s
				}
			}
		}
		if maxSim > ub+1e-9 {
			t.Fatalf("trial %d: ub_sim %v < actual max sim %v", trial, ub, maxSim)
		}

		exact := ExactProbability(pa, pb, gamma)
		if pub := ProbUpperBound(pa, pb, gamma); exact > pub+1e-9 {
			t.Fatalf("trial %d: UB_Pr %v < exact %v (gamma=%v)", trial, pub, exact, gamma)
		}

		if TopicPrune(pa, pb) && exact > 0 {
			t.Fatalf("trial %d: topic-pruned pair has probability %v", trial, exact)
		}
		if SimPrune(pa.Bounds, pb.Bounds, gamma) && exact > 0 {
			t.Fatalf("trial %d: sim-pruned pair has probability %v", trial, exact)
		}
		if ProbPrune(pa, pb, gamma, alpha) && exact > alpha {
			t.Fatalf("trial %d: prob-pruned pair has probability %v > alpha %v", trial, exact, alpha)
		}

		// Refine agrees with the exact decision.
		res := Refine(pa, pb, gamma, alpha)
		if res.Match != (exact > alpha+1e-12) && math.Abs(exact-alpha) > 1e-9 {
			t.Fatalf("trial %d: Refine match %v, exact %v vs alpha %v", trial, res.Match, exact, alpha)
		}
	}
}

func TestRefineEarlyExits(t *testing.T) {
	kw := tokens.New("k")
	sel := sel2()
	// Identical single-instance tuples with a keyword: probability 1.
	r1 := tuple.MustRecord(schema, "r1", 0, 0, []string{"k x", "y"})
	r2 := tuple.MustRecord(schema, "r2", 1, 0, []string{"k x", "y"})
	pa := BuildProfile(tuple.FromComplete(r1), sel, kw)
	pb := BuildProfile(tuple.FromComplete(r2), sel, kw)
	res := Refine(pa, pb, 1.5, 0.5)
	if !res.Match || res.Prob <= 0.5 {
		t.Fatalf("identical tuples must match: %+v", res)
	}
	// Disjoint tuples: first pair check establishes the Theorem 4.4 bound
	// sum + (1-processed) = 0 <= alpha and prunes immediately.
	r3 := tuple.MustRecord(schema, "r3", 1, 0, []string{"zz", "ww"})
	pc := BuildProfile(tuple.FromComplete(r3), sel, kw)
	res = Refine(pa, pc, 1.5, 0.3)
	if res.Match {
		t.Fatal("disjoint tuples must not match")
	}
	if !res.PrunedEarly {
		t.Fatalf("single-instance non-match must trigger Theorem 4.4: %+v", res)
	}
	if res.PairsChecked != 1 {
		t.Fatalf("PairsChecked = %d, want 1", res.PairsChecked)
	}
}

func TestRefineInstancePairSavings(t *testing.T) {
	// Many-instance tuples whose first pairs already push the sum past
	// alpha: early accept must not check all pairs.
	kw := tokens.New("k")
	cands := []tuple.Candidate{}
	for i := 0; i < 6; i++ {
		toks := tokens.New("k", "shared")
		cands = append(cands, tuple.Candidate{Text: "v", Toks: toks, P: 1.0 / 6.0})
	}
	pa := imputedProfile(t, "a", "k base", cands, kw)
	pb := imputedProfile(t, "b", "k base", cands, kw)
	res := Refine(pa, pb, 1.0, 0.1)
	if !res.Match {
		t.Fatal("must match")
	}
	if res.PairsChecked >= 36 {
		t.Fatalf("early accept must save work: checked %d of 36", res.PairsChecked)
	}
}

func TestProbUpperBoundExample7(t *testing.T) {
	// Example 7: d=3, gamma=2.8, E(X)=0.7, E(Y)=1.2, lb_X=0.3, ub_X=1.1,
	// lb_Y=1.1, ub_Y=1.3 -> UB = 1 - (1 - 0.2/0.5)^2 * 0.5/1.0 = 0.82.
	// Attribute expectations: r1 = {0.1, 0.1, (0.1+0.5+0.9)/3 = 0.5},
	// r2 = {0.2, 0.2, (0.7+0.9)/2 = 0.8}.
	pa := manualProfile([3]float64{0.1, 0.1, 0.5}, [3][2]float64{{0.1, 0.1}, {0.1, 0.1}, {0.1, 0.9}})
	pb := manualProfile([3]float64{0.2, 0.2, 0.8}, [3][2]float64{{0.2, 0.2}, {0.2, 0.2}, {0.7, 0.9}})
	got := ProbUpperBound(pa, pb, 2.8)
	if math.Abs(got-0.82) > 1e-9 {
		t.Fatalf("Example 7 UB = %v, want 0.82", got)
	}
	// The symmetric orientation must give the same bound.
	if sym := ProbUpperBound(pb, pa, 2.8); math.Abs(sym-got) > 1e-12 {
		t.Fatalf("UB not symmetric: %v vs %v", sym, got)
	}
	// Outside the lemma's conditions the bound degrades to 1: overlapping
	// ranges (neither lb_X >= ub_Y nor lb_Y >= ub_X).
	pc := manualProfile([3]float64{0.5, 0.5, 0.5}, [3][2]float64{{0.1, 0.9}, {0.1, 0.9}, {0.1, 0.9}})
	if ub := ProbUpperBound(pa, pc, 2.8); ub != 1 {
		t.Fatalf("overlapping ranges must give trivial bound, got %v", ub)
	}
}

// manualProfile hand-builds a 3-attribute profile with the given main-pivot
// expectations and distance intervals (no instances; only aggregate-driven
// bounds are exercised).
func manualProfile(exps [3]float64, dists [3][2]float64) *Profile {
	p := &Profile{
		Bounds: Bounds{
			Dist: make([][]agg.Interval, 3),
			Size: make([]agg.IntInterval, 3),
		},
		Exp: make([][]float64, 3),
	}
	for x := 0; x < 3; x++ {
		p.Dist[x] = []agg.Interval{{Lo: dists[x][0], Hi: dists[x][1]}}
		p.Exp[x] = []float64{exps[x]}
		p.Size[x] = agg.IntInterval{Lo: 1, Hi: 1}
	}
	return p
}

// TestBuildProfileInstancesCrossProduct pins the instance enumeration of
// Definition 4: the cross product of the candidate lists with attribute 0
// slowest, joint probabilities, and a topic flag per instance.
func TestBuildProfileInstancesCrossProduct(t *testing.T) {
	p := imputedProfile(t, "x", "known", []tuple.Candidate{
		{Text: "v1", Toks: tokens.New("v1"), P: 0.75},
		{Text: "diabetes", Toks: tokens.New("diabetes"), P: 0.25},
	}, tokens.New("diabetes"))
	want := []instance{{p: 0.75}, {p: 0.25, kw: true}}
	if !reflect.DeepEqual(p.inst, want) {
		t.Fatalf("instances = %+v, want %+v", p.inst, want)
	}
}

// TestEquation2Sim pins Definition 5 over candidate tables: the similarity of
// an instance pair is the sum of its per-attribute Jaccards.
func TestEquation2Sim(t *testing.T) {
	kw := tokens.New("x")
	a := imputedProfile(t, "a", "x y", []tuple.Candidate{{Toks: tokens.New("p"), P: 1}}, kw)
	b := imputedProfile(t, "b", "x y", []tuple.Candidate{{Toks: tokens.New("q"), P: 1}}, kw)
	if got := ExactProbability(a, b, 0.999); got != 1 {
		t.Fatalf("sim 1 + 0 must exceed 0.999: probability %v", got)
	}
	if got := ExactProbability(a, b, 1); got != 0 {
		t.Fatalf("sim 1 + 0 must not exceed 1: probability %v", got)
	}
}

func TestBoundsMerge(t *testing.T) {
	a := completeProfile(t, "a", "p q", "k", tokens.New("k", "z")).Bounds.Clone()
	b := completeProfile(t, "b", "x y z", "m n", tokens.New("k", "z")).Bounds
	a.Merge(b)
	if !a.KW.Get(0) || !a.KW.Get(1) {
		t.Fatalf("KW merge = %v", a.KW)
	}
	if a.Dist[0][0] != (agg.Interval{Lo: 0, Hi: 1}) || a.Dist[1][0] != (agg.Interval{Lo: 0, Hi: 1}) {
		t.Fatalf("Dist merge = %+v", a.Dist)
	}
	if a.Size[0] != (agg.IntInterval{Lo: 2, Hi: 3}) || a.Size[1] != (agg.IntInterval{Lo: 1, Hi: 2}) {
		t.Fatalf("Size merge = %+v", a.Size)
	}
}

func TestBoundsClone(t *testing.T) {
	p := completeProfile(t, "a", "p q", "k", tokens.New("k", "z"))
	c := p.Bounds.Clone()
	c.Merge(completeProfile(t, "b", "x y z", "z m n", tokens.New("k", "z")).Bounds)
	if p.KW.Get(1) || p.Dist[0][0].Hi != 0 || p.Size[1].Hi != 1 {
		t.Fatal("Clone must be independent")
	}
	if !reflect.DeepEqual(p.Bounds.Clone(), p.Bounds) {
		t.Fatal("Clone must equal its source")
	}
}

// TestQuickBoundsMergeMonotone: merging never shrinks any component, and an
// empty slot (a failed imputation) contributes nothing.
func TestQuickBoundsMergeMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	kw := tokens.New("a", "e")
	sel := sel2()
	for trial := 0; trial < 1000; trial++ {
		ims := []*tuple.Imputed{randomImputed(r, "a", 0), randomImputed(r, "b", 1)}
		if r.Intn(4) == 0 {
			ims[1].Dists[1] = tuple.AttrDist{}
		}
		a, b := BuildProfile(ims[0], sel, kw).Bounds, BuildProfile(ims[1], sel, kw).Bounds
		merged := a.Clone()
		merged.Merge(b)
		for _, src := range []Bounds{a, b} {
			for x := range src.Dist {
				for p, iv := range src.Dist[x] {
					if m := merged.Dist[x][p]; !iv.IsEmpty() && (m.Lo > iv.Lo || m.Hi < iv.Hi) {
						t.Fatalf("trial %d: merged interval %v does not cover input %v", trial, m, iv)
					}
				}
				if m, sz := merged.Size[x], src.Size[x]; !sz.IsEmpty() && (m.Lo > sz.Lo || m.Hi < sz.Hi) {
					t.Fatalf("trial %d: merged size %v does not cover input %v", trial, m, sz)
				}
			}
			for i := 0; i < kw.Len(); i++ {
				if src.KW.Get(i) && !merged.KW.Get(i) {
					t.Fatalf("trial %d: merged KW lost bit %d", trial, i)
				}
			}
		}
	}
}

// oracleInstance is one instance the way Equation 2 was first computed here:
// materialised with its own token sets.
type oracleInstance struct {
	toks []tokens.Set
	p    float64
	kw   bool
}

// oracleInstances enumerates Definition 4 recursively, attribute 0 slowest.
func oracleInstances(im *tuple.Imputed, keywords tokens.Set) []oracleInstance {
	d := len(im.Dists)
	var out []oracleInstance
	toks := make([]tokens.Set, d)
	kw := make([]bool, d)
	var rec func(j int, p float64)
	rec = func(j int, p float64) {
		if j == d {
			inst := oracleInstance{toks: append([]tokens.Set(nil), toks...), p: p}
			for _, h := range kw {
				inst.kw = inst.kw || h
			}
			out = append(out, inst)
			return
		}
		for _, c := range im.Dists[j].Cands {
			toks[j] = c.Toks
			kw[j] = c.Toks.ContainsAny(keywords)
			rec(j+1, p*c.P)
		}
	}
	rec(0, 1)
	return out
}

func oracleSim(a, b oracleInstance) float64 {
	total := 0.0
	for j := range a.toks {
		total += tokens.Jaccard(a.toks[j], b.toks[j])
	}
	return total
}

// oracleRefine is Refine over materialised instances.
func oracleRefine(as, bs []oracleInstance, gamma, alpha float64) RefineResult {
	var res RefineResult
	sum, processed := 0.0, 0.0
	for _, ia := range as {
		for _, ib := range bs {
			mass := ia.p * ib.p
			if (ia.kw || ib.kw) && oracleSim(ia, ib) > gamma {
				sum += mass
			}
			processed += mass
			res.PairsChecked++
			if sum > alpha {
				res.Prob, res.Match = sum, true
				return res
			}
			if sum+(1-processed) <= alpha {
				res.Prob, res.PrunedEarly = sum, true
				return res
			}
		}
	}
	res.Prob, res.Match = sum, sum > alpha
	return res
}

// oracleExact is Equation 2 over materialised instances, with the topic test
// before or after the similarity.
func oracleExact(as, bs []oracleInstance, gamma float64, topicFirst bool) float64 {
	sum := 0.0
	for _, ia := range as {
		for _, ib := range bs {
			var hit bool
			if topicFirst {
				hit = (ia.kw || ib.kw) && oracleSim(ia, ib) > gamma
			} else {
				hit = oracleSim(ia, ib) > gamma && (ia.kw || ib.kw)
			}
			if hit {
				sum += ia.p * ib.p
			}
		}
	}
	return sum
}

// eq2Case generates profile pairs for the Equation 2 tests: d attributes,
// each with its own pivots, and candidates over a vocabulary small enough
// that similarities tie and keywords come and go.
type eq2Case struct {
	r      eq2Source
	schema *tuple.Schema
	sel    *pivot.Selection
	kw     tokens.Set
}

var eq2Vocab = []string{"a", "b", "c", "d", "e", "k0", "k1"}

// eq2Source is what the generator draws from: a seeded *rand.Rand in
// TestRefineMatchesInstanceEnumeration, the fuzzer's bytes in FuzzRefine.
type eq2Source interface {
	Intn(n int) int
	Float64() float64
	Perm(n int) []int
}

// fuzzSource draws from the fuzzer's bytes, then zeros. Its probabilities
// are positive, as imputed ones are.
type fuzzSource []byte

func (b *fuzzSource) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

func (b *fuzzSource) Float64() float64 { return float64(1+b.Intn(256)) / 256 }

func (b *fuzzSource) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := b.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func newEq2Case(r eq2Source, d int) *eq2Case {
	c := &eq2Case{r: r, kw: tokens.New("k0", "k1"), sel: &pivot.Selection{}}
	attrs := make([]string, d)
	for x := range attrs {
		attrs[x] = fmt.Sprintf("A%d", x)
		ap := pivot.AttrPivots{Attr: x}
		for a := 0; a <= r.Intn(2); a++ {
			toks := c.tokens()
			ap.Texts, ap.Toks = append(ap.Texts, toks.String()), append(ap.Toks, toks)
		}
		c.sel.PerAttr = append(c.sel.PerAttr, ap)
	}
	c.schema = tuple.MustSchema(attrs...)
	return c
}

// tokens draws a token set, empty one time in six.
func (c *eq2Case) tokens() tokens.Set {
	var ts []string
	for i := c.r.Intn(6); i > 0; i-- {
		ts = append(ts, eq2Vocab[c.r.Intn(len(eq2Vocab))])
	}
	return tokens.New(ts...)
}

// imputed draws 1–6 candidates per attribute, at most maxInst instances.
func (c *eq2Case) imputed(rid string, maxInst int) *tuple.Imputed {
	d := c.schema.D()
	vals := make([]string, d)
	for x := range vals {
		vals[x] = tuple.Missing
	}
	im := &tuple.Imputed{R: tuple.MustRecord(c.schema, rid, 0, 0, vals), Dists: make([]tuple.AttrDist, d)}
	n := 1
	for _, x := range c.r.Perm(d) {
		k := 1 + c.r.Intn(6)
		for n*k > maxInst {
			k--
		}
		n *= k
		for i := 0; i < k; i++ {
			toks := c.tokens()
			im.Dists[x].Cands = append(im.Dists[x].Cands, tuple.Candidate{Text: toks.String(), Toks: toks, P: c.r.Float64()})
		}
		im.Dists[x].Normalize()
	}
	return im
}

// checkEq2Case is the differential test of Equation 2 over candidate tables
// against the materialised-instance enumeration it replaced, on one profile
// pair drawn from r: Refine's every field, and both exact orders, bit for
// bit. γ is a similarity some instance pair attains, so the strict > is
// exercised.
func checkEq2Case(t *testing.T, r eq2Source, trial int) {
	t.Helper()
	c := newEq2Case(r, 1+r.Intn(4))
	ima, imb := c.imputed("a", 36), c.imputed("b", 36)
	pa, pb := BuildProfile(ima, c.sel, c.kw), BuildProfile(imb, c.sel, c.kw)
	oa, ob := oracleInstances(ima, c.kw), oracleInstances(imb, c.kw)
	if len(pa.inst) != len(oa) || len(pb.inst) != len(ob) {
		t.Fatalf("trial %d: %d/%d instances, enumeration has %d/%d", trial, len(pa.inst), len(pb.inst), len(oa), len(ob))
	}
	for i, o := range oa {
		if pa.inst[i] != (instance{p: o.p, kw: o.kw}) {
			t.Fatalf("trial %d: instance %d = %+v, enumeration %+v", trial, i, pa.inst[i], o)
		}
	}
	gamma := oracleSim(oa[r.Intn(len(oa))], ob[r.Intn(len(ob))])
	for _, alpha := range []float64{0, 0.3, 0.5, 0.99} {
		if got, want := Refine(pa, pb, gamma, alpha), oracleRefine(oa, ob, gamma, alpha); got != want {
			t.Fatalf("trial %d (d=%d, γ=%v, α=%v): Refine = %+v, enumeration %+v", trial, len(ima.Dists), gamma, alpha, got, want)
		}
	}
	if got, want := ExactProbability(pa, pb, gamma), oracleExact(oa, ob, gamma, true); got != want {
		t.Fatalf("trial %d: ExactProbability = %v, enumeration %v", trial, got, want)
	}
	if got, want := ExactProbabilityFullER(pa, pb, gamma), oracleExact(oa, ob, gamma, false); got != want {
		t.Fatalf("trial %d: ExactProbabilityFullER = %v, enumeration %v", trial, got, want)
	}
}

// TestRefineMatchesInstanceEnumeration replays 5 000 seeded FuzzRefine
// cases.
func TestRefineMatchesInstanceEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 5000; trial++ {
		checkEq2Case(t, r, trial)
	}
}

// FuzzRefine: Refine and Equation 2 over candidate tables agree with the
// instance enumeration on profile pairs decoded from the fuzzer's bytes.
func FuzzRefine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x01\x05\x02\x03\x00\x04\x05\x06\x02\x01\x03\x05\x00\x04\x80\x05\x01\x02\x06\x03\x40\x02\x05\x00\x01\xc0\x03\x02\x04\x06\x05\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzSource(data)
		checkEq2Case(t, &src, 0)
	})
}

// TestRefineAllocatesNothing covers single-instance pairs and the largest
// pairs the benchmark workloads produce: d = 4 with two 6-candidate
// attributes per side, 36 × 36 instance pairs walked to the end.
func TestRefineAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := newEq2Case(r, 4)
	mk := func(rid string) *Profile {
		im := c.imputed(rid, 1)
		for _, x := range []int{1, 3} {
			im.Dists[x].Cands = nil
			for i := 0; i < 6; i++ {
				toks := c.tokens()
				im.Dists[x].Cands = append(im.Dists[x].Cands, tuple.Candidate{Toks: toks, P: 1.0 / 6})
			}
		}
		return BuildProfile(im, c.sel, c.kw)
	}
	for d := 1; d <= 4; d++ {
		cd := newEq2Case(r, d)
		for _, maxInst := range []int{1, 36} {
			a, b := BuildProfile(cd.imputed("a", maxInst), cd.sel, cd.kw), BuildProfile(cd.imputed("b", maxInst), cd.sel, cd.kw)
			if n := testing.AllocsPerRun(50, func() { Refine(a, b, 0.5, 0.99) }); n != 0 {
				t.Fatalf("d=%d, ≤ %d instances: Refine allocates %v per call", d, maxInst, n)
			}
		}
	}
	a, b := mk("a"), mk("b")
	if len(a.inst) != 36 || len(b.inst) != 36 {
		t.Fatalf("instances %d × %d, want 36 × 36", len(a.inst), len(b.inst))
	}
	// γ = d: no similarity exceeds it, so nothing matches, and at α = 0
	// Theorem 4.4 cannot stop the walk before the last pair.
	if res := Refine(a, b, 4, 0); res.PairsChecked != 36*36 {
		t.Fatalf("walk stopped after %d pairs", res.PairsChecked)
	}
	if n := testing.AllocsPerRun(50, func() { Refine(a, b, 4, 0) }); n != 0 {
		t.Fatalf("36 × 36: Refine allocates %v per call", n)
	}
}
