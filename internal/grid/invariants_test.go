package grid

import (
	"fmt"
	"reflect"
	"testing"

	"terids/internal/prune"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// checkInvariants asserts the grid's three invariants: every cell aggregate
// equals a from-scratch merge of the cell's entries, cells and entries point
// at each other, and the resident order is strictly ascending by ordinal.
func checkInvariants(t *testing.T, g *Grid, when string) {
	t.Helper()
	held := 0
	for id, c := range g.cells {
		if c.id != id || len(c.entries) == 0 {
			t.Fatalf("%s: cell %d has id %d and %d entries", when, id, c.id, len(c.entries))
		}
		fresh := c.entries[0].Prof.Bounds.Clone()
		for _, e := range c.entries {
			fresh.Merge(e.Prof.Bounds)
			back := false
			for _, ec := range e.cells {
				back = back || ec == c
			}
			if !back {
				t.Fatalf("%s: cell %d holds %s, which does not list it", when, id, e.Rec.RID)
			}
		}
		if !reflect.DeepEqual(fresh, c.bounds) {
			t.Fatalf("%s: cell %d aggregate drifted from its %d entries:\n have %+v\n want %+v",
				when, id, len(c.entries), c.bounds, fresh)
		}
		held += len(c.entries)
	}
	live, dead, listed, last := 0, 0, 0, int64(0)
	for i, e := range g.order {
		if e == nil {
			dead++
			continue
		}
		if e.pos != i || e.ord <= last || g.recs[e.Rec.RID] != e {
			t.Fatalf("%s: order[%d] = %s has pos %d, ord %d after ord %d", when, i, e.Rec.RID, e.pos, e.ord, last)
		}
		last = e.ord
		live++
		listed += len(e.cells)
	}
	if live != g.Len() || dead != g.dead || listed != held {
		t.Fatalf("%s: %d live/%d dead in order vs Len %d/dead %d; entries list %d cells, cells hold %d",
			when, live, dead, g.Len(), g.dead, listed, held)
	}
}

// checkCandidates asserts the emission contract against the definition: the
// other-stream entries held by a cell that cell-level pruning keeps, each
// exactly once, in strictly increasing ordinal order.
func checkCandidates(t *testing.T, g *Grid, q *prune.Profile, gamma float64, when string) {
	t.Helper()
	want := map[*Entry]bool{}
	for _, c := range g.cells {
		if !q.MayKW && !c.bounds.KW.Any() {
			continue
		}
		if prune.SimPrune(q.Bounds, c.bounds, gamma) {
			continue
		}
		for _, e := range c.entries {
			if e.Rec.Stream != q.Im.R.Stream {
				want[e] = true
			}
		}
	}
	last := int64(0)
	got := g.Survivors(q, Query{Gamma: gamma})
	for _, e := range got {
		if e.Ord() <= last {
			t.Fatalf("%s: %s (ord %d) emitted after ord %d", when, e.Rec.RID, e.Ord(), last)
		}
		if last = e.Ord(); !want[e] {
			t.Fatalf("%s: %s emitted but no surviving cell holds it", when, e.Rec.RID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d entries, %d survive cell-level pruning", when, len(got), len(want))
	}
}

// TestInvariantsUnderChurn drives random insert/remove sequences — point and
// wide-box entries, single removals in random order and bursts of several
// between two queries (time-window expiry) — and checks every invariant
// after every operation.
func TestInvariantsUnderChurn(t *testing.T) {
	for _, cellsPerDim := range []int{1, 4} {
		c := newChurn(int64(2021 + cellsPerDim))
		g := c.grid(t, cellsPerDim)
		var alive []*Entry
		remove := func(i int, when string) {
			if !g.Remove(alive[i].Rec.RID) {
				t.Fatalf("%s: Remove(%s) reported absent", when, alive[i].Rec.RID)
			}
			alive = append(alive[:i], alive[i+1:]...)
			checkInvariants(t, g, when)
		}
		compactions := 0
		for round := 0; round < 1500; round++ {
			when := fmt.Sprintf("n=%d round %d", cellsPerDim, round)
			dead := g.dead
			switch p := c.r.Float64(); {
			case len(alive) < 5 || p < 0.45:
				e := c.entry(c.r.Intn(2), c.r.Intn(4) == 0)
				if err := g.Insert(e); err != nil {
					t.Fatal(err)
				}
				alive = append(alive, e)
				checkInvariants(t, g, when)
			case p < 0.75:
				remove(c.r.Intn(len(alive)), when)
			case p < 0.85:
				for k := 2 + c.r.Intn(6); k > 0 && len(alive) > 0; k-- {
					remove(0, when) // oldest first, like a window
				}
			default:
				q := c.entry(c.r.Intn(2), c.r.Intn(4) == 0)
				checkCandidates(t, g, q.Prof, c.r.Float64()*2, when)
			}
			if g.dead < dead {
				compactions++
			}
		}
		if compactions == 0 {
			t.Fatalf("n=%d: the sequence never compacted the resident order", cellsPerDim)
		}
		for len(alive) > 0 {
			remove(len(alive)-1, "drain")
		}
		if g.Len() != 0 || g.CellCount() != 0 {
			t.Fatalf("drained grid has %d residents in %d cells", g.Len(), g.CellCount())
		}
	}
}

// TestRemoveShrinksAttainedBounds walks the named cases of an exact
// decremental aggregate through one cell and observes them from outside,
// through cell-level pruning: the last keyword carrier and the sole attainer
// of a distance bound leave (the cell turns prunable), one of several tied
// attainers leaves (nothing moves).
func TestRemoveShrinksAttainedBounds(t *testing.T) {
	g := mustGrid(t, 2, 1)
	kw := tokens.New("k")
	for _, e := range []*Entry{
		entry(t, "near", 1, "k p q", "m n", kw), // sole keyword carrier, sole attainer of every Dist Lo
		entry(t, "far1", 1, "x y", "u v", kw),   // distance 1.0, sizes 2/2 ...
		entry(t, "far2", 1, "x z", "u w", kw),   // ... tied with this one
	} {
		if err := g.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	pruned := func(q *Entry, gamma float64) bool {
		return g.Candidates(q.Prof, Query{Gamma: gamma}, func(*Entry) bool { return true }).CellsPruned == 1
	}
	plain := entry(t, "q1", 0, "p q", "m n", kw)   // no keyword: needs one in the cell
	keyed := entry(t, "q2", 0, "k p q", "m n", kw) // at the pivots: similar only to "near"
	if pruned(plain, 0.1) || pruned(keyed, 1.9) {
		t.Fatal("the cell holds a keyword carrier at the pivots and must survive")
	}
	g.Remove("far1") // tied with far2 on every bound it attains
	checkInvariants(t, g, "tied attainer removed")
	if pruned(plain, 0.1) || pruned(keyed, 1.9) {
		t.Fatal("removing one of two tied attainers must not move the aggregate")
	}
	g.Remove("near")
	checkInvariants(t, g, "sole attainer removed")
	if !pruned(plain, 0.1) {
		t.Fatal("keyword bit must disappear with its last carrier")
	}
	if !pruned(keyed, 1.9) {
		t.Fatal("distance lower bounds must rise to 1.0 once only far2 is left")
	}
}

// TestMultiCellEntryEmittedOnce: an entry spanning every cell of the grid is
// still one candidate, and sits at its ordinal among the point entries.
func TestMultiCellEntryEmittedOnce(t *testing.T) {
	c := newChurn(7)
	g := c.grid(t, 4)
	var want []string
	for i := 0; i < 12; i++ {
		e := c.entry(1, false)
		if i%3 == 1 { // the widest box: nothing known on either attribute
			e.Prof = prune.BuildProfile(&tuple.Imputed{R: e.Rec, Dists: make([]tuple.AttrDist, 2)}, c.sel, c.kw)
		}
		if err := g.Insert(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.Rec.RID)
	}
	if g.CellCount() != 16 {
		t.Fatalf("full-span entries must materialize all 16 cells, have %d", g.CellCount())
	}
	q := c.entry(0, false)
	var got []string
	g.Candidates(q.Prof, Query{Gamma: 0, DisableTopic: true, DisableSim: true}, func(e *Entry) bool {
		got = append(got, e.Rec.RID)
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unpruned Candidates = %v, want insertion order %v", got, want)
	}
}

// TestExportOrderSurvivesCompaction: Export is insertion order whatever was
// removed in between, before and after the resident order compacts.
func TestExportOrderSurvivesCompaction(t *testing.T) {
	c := newChurn(11)
	g := c.grid(t, 4)
	var want []string
	for i := 0; i < 40; i++ {
		e := c.entry(i%2, i%5 == 0)
		if err := g.Insert(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.Rec.RID)
	}
	check := func(when string) {
		t.Helper()
		var got []string
		for _, e := range g.Export() {
			got = append(got, e.Rec.RID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Export = %v, want %v", when, got, want)
		}
	}
	compacted := false
	for round := 0; len(want) > 3; round++ {
		if round%4 == 3 { // keep inserting so positions and ordinals diverge
			e := c.entry(1, false)
			if err := g.Insert(e); err != nil {
				t.Fatal(err)
			}
			want = append(want, e.Rec.RID)
		}
		i := (round * 7) % len(want) // interleaved, not FIFO
		dead := g.dead
		g.Remove(want[i])
		want = append(want[:i], want[i+1:]...)
		compacted = compacted || g.dead < dead
		check(fmt.Sprintf("round %d", round))
	}
	if !compacted {
		t.Fatal("removing most residents must have compacted the order")
	}
}
