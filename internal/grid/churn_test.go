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

// churn generates grid entries over a vocabulary small enough that ties —
// distance 1.0 to a pivot, equal token counts, shared keywords — are the
// rule: the cases a decremental aggregate has to get right.
type churn struct {
	r    *rand.Rand
	sel  *pivot.Selection
	kw   tokens.Set
	next int
}

func newChurn(seed int64) *churn {
	return &churn{
		r:  rand.New(rand.NewSource(seed)),
		kw: tokens.New("k0", "k1"),
		// Attribute 0 has an auxiliary pivot, attribute 1 only the main one,
		// so bounds rows differ in length.
		sel: &pivot.Selection{PerAttr: []pivot.AttrPivots{
			{Attr: 0, Texts: []string{"p q", "t0 t1"}, Toks: []tokens.Set{tokens.New("p", "q"), tokens.New("t0", "t1")}},
			{Attr: 1, Texts: []string{"m n"}, Toks: []tokens.Set{tokens.New("m", "n")}},
		}},
	}
}

func (c *churn) grid(tb testing.TB, cellsPerDim int) *Grid {
	tb.Helper()
	g, err := New(2, cellsPerDim)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

var churnVocab = []string{"p", "q", "m", "n", "t0", "t1", "t2", "t3", "k0", "k1"}

func (c *churn) value() tuple.AttrDist {
	text := ""
	for i := 0; i <= c.r.Intn(3); i++ {
		text += churnVocab[c.r.Intn(len(churnVocab))] + " "
	}
	return tuple.Point(text, tokens.Tokenize(text))
}

// entry returns a point entry (a complete tuple: one cell) or, when wide, an
// imputed one: attribute 0, and half the time attribute 1 as well, carries
// either no candidate at all or two that sit at opposite ends of the pivot
// axis, so its box spans [0,1] there and it occupies a whole row (or all) of
// the grid.
func (c *churn) entry(stream int, wide bool) *Entry {
	c.next++
	rec := tuple.MustRecord(schema, fmt.Sprintf("r%d", c.next), stream, int64(c.next), []string{"", ""})
	im := &tuple.Imputed{R: rec, Dists: []tuple.AttrDist{c.value(), c.value()}}
	if wide {
		span := tuple.AttrDist{}
		if c.r.Intn(2) == 0 {
			span.Cands = []tuple.Candidate{
				{Text: "p q", Toks: tokens.New("p", "q"), P: 0.5},
				{Text: "zz k1", Toks: tokens.New("zz", "k1"), P: 0.5},
			}
		}
		im.Dists[0] = span
		if c.r.Intn(2) == 0 {
			im.Dists[1] = tuple.AttrDist{}
		}
	}
	return &Entry{Rec: rec, Prof: prune.BuildProfile(im, c.sel, c.kw)}
}

// BenchmarkGridChurn is the ER-grid rung of the benchmark ladder: a steady
// state of 2000 residents over two streams, each iteration doing what one
// arrival does to the grid — expire the oldest resident, query, insert.
func BenchmarkGridChurn(b *testing.B) {
	for _, bc := range []struct {
		name string
		wide bool
	}{
		{"point", false}, // complete tuples: one cell each
		{"wide", true},   // imputed tuples: a row of cells, or all of them
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := newChurn(1)
			g := c.grid(b, 5)
			ring := make([]*Entry, 2000)
			for i := range ring {
				ring[i] = c.entry(i%2, bc.wide)
				if err := g.Insert(ring[i]); err != nil {
					b.Fatal(err)
				}
			}
			emitted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The expiring entry comes back as the new arrival: same
				// profile, fresh ordinal.
				e := ring[i%len(ring)]
				g.Remove(e.Rec.RID)
				emitted += g.Candidates(e.Prof, Query{Gamma: 1.2}, func(*Entry) bool { return true }).Emitted
				if err := g.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(emitted)/float64(b.N), "emitted/op")
		})
	}
}
