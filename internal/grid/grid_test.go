package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"terids/internal/pivot"
	"terids/internal/prune"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("A", "B")

func sel2() *pivot.Selection {
	return &pivot.Selection{PerAttr: []pivot.AttrPivots{
		{Attr: 0, Texts: []string{"p q"}, Toks: []tokens.Set{tokens.New("p", "q")}},
		{Attr: 1, Texts: []string{"m n"}, Toks: []tokens.Set{tokens.New("m", "n")}},
	}}
}

func entry(t *testing.T, rid string, stream int, a, b string, kw tokens.Set) *Entry {
	t.Helper()
	r := tuple.MustRecord(schema, rid, stream, 0, []string{a, b})
	return &Entry{Rec: r, Prof: prune.BuildProfile(tuple.FromComplete(r), sel2(), kw)}
}

func mustGrid(t *testing.T, d, n int) *Grid {
	t.Helper()
	g, err := New(d, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 5}, {2, 0}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Errorf("New(%v) must fail", bad)
		}
	}
}

func TestInsertRemove(t *testing.T) {
	g := mustGrid(t, 2, 5)
	kw := tokens.New("k")
	e1 := entry(t, "r1", 0, "p q", "m n", kw)
	if err := g.Insert(e1); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.CellCount() == 0 {
		t.Fatalf("Len=%d cells=%d", g.Len(), g.CellCount())
	}
	if err := g.Insert(e1); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if got, ok := g.Get("r1"); !ok || got != e1 {
		t.Fatal("Get failed")
	}
	if !g.Remove("r1") {
		t.Fatal("Remove failed")
	}
	if g.Remove("r1") {
		t.Fatal("double remove must report false")
	}
	if g.Len() != 0 || g.CellCount() != 0 {
		t.Fatal("grid must be empty after removal")
	}
}

func TestCandidatesFindsCrossStreamMatches(t *testing.T) {
	g := mustGrid(t, 2, 5)
	kw := tokens.New("k")
	// Same-content tuples on different streams.
	g.Insert(entry(t, "a1", 0, "k p q", "m n", kw))
	g.Insert(entry(t, "b1", 1, "k p q", "m n", kw))
	// A far-away tuple.
	g.Insert(entry(t, "b2", 1, "zz ww", "uu vv", kw))

	q := entry(t, "q", 0, "k p q", "m n", kw)
	var got []string
	g.Candidates(q.Prof, Query{Gamma: 1.5}, func(e *Entry) bool {
		got = append(got, e.Rec.RID)
		return true
	})
	found := map[string]bool{}
	for _, rid := range got {
		found[rid] = true
	}
	if !found["b1"] {
		t.Fatal("b1 (same content, other stream) must be a candidate")
	}
	if found["a1"] {
		t.Fatal("a1 is on the query's own stream and must be excluded")
	}
}

func TestCandidatesCellPruning(t *testing.T) {
	g := mustGrid(t, 2, 5)
	kw := tokens.New("diabetes")
	// No keyword anywhere in the grid.
	g.Insert(entry(t, "b1", 1, "flu fever", "cough", kw))
	g.Insert(entry(t, "b2", 1, "cold nose", "sneeze", kw))
	// Query without keywords either: every cell must be topic-pruned.
	q := entry(t, "q", 0, "flu fever", "cough", kw)
	stats := g.Candidates(q.Prof, Query{Gamma: 0.1}, func(*Entry) bool { return true })
	if stats.Emitted != 0 {
		t.Fatalf("topic pruning failed: emitted %d", stats.Emitted)
	}
	if stats.CellsPruned == 0 {
		t.Fatal("expected cell-level pruning")
	}
	// Query WITH a keyword: cells pass the topic check.
	q2 := entry(t, "q2", 0, "diabetes fever flu", "cough", kw)
	stats = g.Candidates(q2.Prof, Query{Gamma: 0.1}, func(*Entry) bool { return true })
	if stats.Emitted == 0 {
		t.Fatal("keyword query must reach similar tuples")
	}
}

func TestCandidatesSimPruningAtCellLevel(t *testing.T) {
	g := mustGrid(t, 2, 10)
	kw := tokens.New("k")
	// Far tuple (opposite corner of converted space: identical to pivots
	// means distance 0; disjoint means 1).
	g.Insert(entry(t, "far", 1, "k zz", "ww", kw))    // far from pivots
	g.Insert(entry(t, "near", 1, "k p q", "m n", kw)) // at pivots
	q := entry(t, "q", 0, "k p q", "m n", kw)
	// gamma = 1.2: the far tuple's cell (distance >= ~1 per attr from q's
	// cell) must be pruned by the Lemma 4.2 cell bound.
	var got []string
	stats := g.Candidates(q.Prof, Query{Gamma: 1.2}, func(e *Entry) bool {
		got = append(got, e.Rec.RID)
		return true
	})
	if len(got) != 1 || got[0] != "near" {
		t.Fatalf("Candidates = %v, want [near]", got)
	}
	if stats.CellsPruned == 0 {
		t.Fatal("expected the far cell to be pruned")
	}
}

// TestCandidatesEarlyStop pins where an early stop lands: emission is in
// ordinal order, so the one entry seen is the lowest surviving ordinal —
// here b1, once b0 (the lowest overall) has expired.
func TestCandidatesEarlyStop(t *testing.T) {
	g := mustGrid(t, 2, 3)
	kw := tokens.New("k")
	g.Insert(entry(t, "a0", 0, "k p q", "m n", kw)) // the query's own stream
	for i := 0; i < 10; i++ {
		g.Insert(entry(t, fmt.Sprintf("b%d", i), 1, "k p q", "m n", kw))
	}
	g.Remove("b0")
	q := entry(t, "q", 0, "k p q", "m n", kw)
	var got []string
	stats := g.Candidates(q.Prof, Query{Gamma: 0.5}, func(e *Entry) bool {
		got = append(got, e.Rec.RID)
		return false
	})
	if len(got) != 1 || got[0] != "b1" || stats.Emitted != 1 {
		t.Fatalf("early stop saw %v (Emitted %d), want exactly [b1]", got, stats.Emitted)
	}
}

func TestEach(t *testing.T) {
	g := mustGrid(t, 2, 4)
	kw := tokens.New("k")
	g.Insert(entry(t, "x1", 0, "a", "b", kw))
	g.Insert(entry(t, "x2", 1, "c", "d", kw))
	n := 0
	g.Each(func(*Entry) bool { n++; return true })
	if n != 2 {
		t.Fatalf("Each visited %d, want 2", n)
	}
	n = 0
	g.Each(func(*Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each early stop visited %d, want 1", n)
	}
}

// TestCandidatesNeverMissesAgainstBruteForce is the grid's completeness
// property: any pair the exhaustive scan finds above the similarity bound
// must also be reachable through Candidates.
func TestCandidatesNeverMissesAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	kw := tokens.New("t0", "t3")
	vocab := func() string {
		n := 1 + r.Intn(4)
		s := ""
		for i := 0; i < n; i++ {
			s += fmt.Sprintf("t%d ", r.Intn(8))
		}
		return s
	}
	sel := sel2()
	for trial := 0; trial < 30; trial++ {
		g, err := New(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		var resident []*Entry
		for i := 0; i < 25; i++ {
			rec := tuple.MustRecord(schema, fmt.Sprintf("s%d", i), 1, int64(i), []string{vocab(), vocab()})
			e := &Entry{Rec: rec, Prof: prune.BuildProfile(tuple.FromComplete(rec), sel, kw)}
			if err := g.Insert(e); err != nil {
				t.Fatal(err)
			}
			resident = append(resident, e)
		}
		qrec := tuple.MustRecord(schema, "q", 0, 99, []string{vocab(), vocab()})
		q := prune.BuildProfile(tuple.FromComplete(qrec), sel, kw)
		gamma := r.Float64() * 2

		got := map[string]bool{}
		g.Candidates(q, Query{Gamma: gamma}, func(e *Entry) bool {
			got[e.Rec.RID] = true
			return true
		})
		for _, e := range resident {
			sim := tuple.Sim(qrec, e.Rec)
			kwOK := q.MayKW || e.Prof.MayKW
			if sim > gamma && kwOK && !got[e.Rec.RID] {
				t.Fatalf("trial %d: grid missed %s with sim %v > gamma %v", trial, e.Rec.RID, sim, gamma)
			}
		}
	}
}

func TestExportImportRoundtrip(t *testing.T) {
	g := mustGrid(t, 2, 5)
	kw := tokens.New("k")
	rids := []string{"a1", "b1", "a2", "b2", "a3"}
	for i, rid := range rids {
		e := entry(t, rid, i%2, fmt.Sprintf("k p q%d", i), "m n", kw)
		if err := g.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// One eviction mid-way keeps the ordinal sequence gapped, as in
	// production.
	g.Remove("b1")

	exported := g.Export()
	if len(exported) != 4 {
		t.Fatalf("exported %d entries, want 4", len(exported))
	}
	for i := 1; i < len(exported); i++ {
		if exported[i-1].Ord() >= exported[i].Ord() {
			t.Fatal("export not in insertion-ordinal order")
		}
	}

	g2 := mustGrid(t, 2, 5)
	if err := g2.Import(exported); err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("imported grid has %d residents, want %d", g2.Len(), g.Len())
	}
	// Relative order is preserved under the fresh (compacted) ordinals.
	re := g2.Export()
	for i := range exported {
		if re[i].Rec.RID != exported[i].Rec.RID {
			t.Fatalf("import reordered entries: %s at %d, want %s",
				re[i].Rec.RID, i, exported[i].Rec.RID)
		}
	}
	// The source grid's entries were not mutated by the import.
	for i, e := range exported {
		if g.Export()[i].Ord() != e.Ord() {
			t.Fatal("import mutated the exported entries' ordinals")
		}
	}
	// Candidates behave identically on the rebuilt grid.
	q := entry(t, "q", 0, "k p q1", "m n", kw)
	collect := func(gr *Grid) []string {
		var out []string
		gr.Candidates(q.Prof, Query{Gamma: 0.5}, func(e *Entry) bool {
			out = append(out, e.Rec.RID)
			return true
		})
		return out
	}
	want, got := collect(g), collect(g2)
	if len(want) != len(got) {
		t.Fatalf("candidates differ after import: %v vs %v", got, want)
	}

	if err := g2.Import(exported); err == nil {
		t.Fatal("import into a non-empty grid must fail")
	}
}
