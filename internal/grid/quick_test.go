package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"terids/internal/prune"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// TestRandomInsertRemoveConsistency hammers the grid with random
// insert/remove sequences and checks Len, Get, CellCount consistency and
// that Candidates never emits evicted or same-stream tuples.
func TestRandomInsertRemoveConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	kw := tokens.New("k")
	sel := sel2()
	g, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	alive := map[string]*Entry{}
	next := 0
	randEntry := func() *Entry {
		next++
		rid := fmt.Sprintf("r%d", next)
		vals := []string{}
		for i := 0; i < 2; i++ {
			v := ""
			for k := 0; k <= r.Intn(3); k++ {
				v += fmt.Sprintf("t%d ", r.Intn(10))
			}
			vals = append(vals, v)
		}
		rec := tuple.MustRecord(schema, rid, r.Intn(2), int64(next), vals)
		return &Entry{Rec: rec, Prof: prune.BuildProfile(tuple.FromComplete(rec), sel, kw)}
	}
	for round := 0; round < 3000; round++ {
		if len(alive) == 0 || r.Float64() < 0.6 {
			e := randEntry()
			if err := g.Insert(e); err != nil {
				t.Fatal(err)
			}
			alive[e.Rec.RID] = e
		} else {
			// Remove a random live RID.
			for rid := range alive {
				if !g.Remove(rid) {
					t.Fatalf("Remove(%s) failed", rid)
				}
				delete(alive, rid)
				break
			}
		}
		if g.Len() != len(alive) {
			t.Fatalf("round %d: Len %d != alive %d", round, g.Len(), len(alive))
		}
	}
	// Every live entry is retrievable; evicted ones are not.
	for rid, e := range alive {
		got, ok := g.Get(rid)
		if !ok || got != e {
			t.Fatalf("live entry %s not retrievable", rid)
		}
	}
	// A query from stream 0 must only see live stream-1 entries.
	q := randEntry()
	qr := tuple.MustRecord(schema, q.Rec.RID, 0, 0, []string{"t1 k", "t2"})
	qp := prune.BuildProfile(tuple.FromComplete(qr), sel, kw)
	g.Candidates(qp, Query{Gamma: 0.01}, func(e *Entry) bool {
		if e.Rec.Stream != 1 {
			t.Fatalf("candidate %s from query's own stream", e.Rec.RID)
		}
		if _, ok := alive[e.Rec.RID]; !ok {
			t.Fatalf("candidate %s was evicted", e.Rec.RID)
		}
		return true
	})
	// Empty grid after removing everything.
	for rid := range alive {
		g.Remove(rid)
	}
	if g.Len() != 0 || g.CellCount() != 0 {
		t.Fatalf("grid not empty after removing all: len=%d cells=%d", g.Len(), g.CellCount())
	}
}

// TestAblationFlagsWidenCandidates checks that disabling cell-level pruning
// only ever ADDS candidates (safety direction).
func TestAblationFlagsWidenCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	kw := tokens.New("t0")
	sel := sel2()
	g, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		v := func() string {
			out := ""
			for k := 0; k <= r.Intn(3); k++ {
				out += fmt.Sprintf("t%d ", r.Intn(8))
			}
			return out
		}
		rec := tuple.MustRecord(schema, fmt.Sprintf("e%d", i), 1, int64(i), []string{v(), v()})
		g.Insert(&Entry{Rec: rec, Prof: prune.BuildProfile(tuple.FromComplete(rec), sel, kw)})
	}
	qrec := tuple.MustRecord(schema, "q", 0, 99, []string{"t1 t2", "t3"})
	qp := prune.BuildProfile(tuple.FromComplete(qrec), sel, kw)
	collect := func(opt Query) map[string]bool {
		out := map[string]bool{}
		g.Candidates(qp, opt, func(e *Entry) bool {
			out[e.Rec.RID] = true
			return true
		})
		return out
	}
	pruned := collect(Query{Gamma: 1.2})
	open := collect(Query{Gamma: 1.2, DisableTopic: true, DisableSim: true})
	for rid := range pruned {
		if !open[rid] {
			t.Fatalf("ablation lost candidate %s", rid)
		}
	}
	if len(open) < len(pruned) {
		t.Fatal("disabling pruning must not shrink the candidate set")
	}
}
