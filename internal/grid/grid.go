// Package grid implements the ER-grid data synopsis of Section 5.2: a
// sparse d-dimensional grid over the converted space [0,1]^d (main-pivot
// Jaccard distances). An imputed tuple occupies the box of its per-attribute
// distance intervals and is stored in every cell that box intersects. A cell
// carries the union of its residents' prune.Bounds (keyword vector, per-pivot
// distance intervals, token-size intervals), so cell-level pruning runs the
// tuple-level rules on it.
//
// Three invariants hold after every operation: residents are kept in
// insertion-ordinal order; Candidates emits each survivor exactly once, in
// that order; and every cell's aggregate equals a from-scratch merge of the
// entries it holds.
package grid

import (
	"fmt"
	"math"

	"terids/internal/agg"
	"terids/internal/prune"
	"terids/internal/tuple"
)

// Entry is one tuple resident in the grid.
type Entry struct {
	Rec  *tuple.Record
	Prof *prune.Profile
	// ord is the grid-assigned insertion ordinal: the deterministic order
	// Candidates, Each and Export emit in.
	ord int64
	// pos indexes the entry in Grid.order; cells are the cells holding it.
	pos   int
	cells []*cell
}

// Ord returns the entry's insertion ordinal (0 before insertion).
func (e *Entry) Ord() int64 { return e.ord }

type cell struct {
	id      int // row-major index of the cell's coordinates
	entries []*Entry
	// bounds is the union of the entries' Prof.Bounds.
	bounds prune.Bounds
	// stamp equals Grid.epoch iff the cell survived cell-level pruning in
	// the Candidates call in progress.
	stamp uint64
}

// drop takes e out of the cell by pointer identity. Entry order inside a
// cell carries no meaning, so the last entry fills the hole.
func (c *cell) drop(e *Entry) {
	last := len(c.entries) - 1
	for i, r := range c.entries {
		if r == e {
			c.entries[i] = c.entries[last]
			c.entries[last] = nil
			c.entries = c.entries[:last]
			return
		}
	}
}

// shrink makes the aggregate exact again after an entry with bounds gone has
// left a cell that still holds others. Only a bound gone attained can have
// moved, and only such bounds are rescanned, stopping at the first remaining
// entry that attains them too — ties (distance 1.0 to a pivot, equal token
// counts, a shared keyword) are the common case. An empty interval (a failed
// imputation) attains nothing.
func (c *cell) shrink(gone prune.Bounds) {
	cs := c.bounds
	for x := range cs.Dist {
		for a := range cs.Dist[x] {
			iv, was := &cs.Dist[x][a], gone.Dist[x][a]
			lo, hi := iv.Lo, iv.Hi
			if was.Lo == lo {
				lo = agg.EmptyInterval().Lo
			}
			if was.Hi == hi {
				hi = agg.EmptyInterval().Hi
			}
			for _, r := range c.entries {
				if lo == iv.Lo && hi == iv.Hi {
					break
				}
				o := r.Prof.Dist[x][a]
				lo, hi = min(lo, o.Lo), max(hi, o.Hi)
			}
			iv.Lo, iv.Hi = lo, hi
		}
		iv, was := &cs.Size[x], gone.Size[x]
		lo, hi := iv.Lo, iv.Hi
		if was.Lo == lo {
			lo = agg.EmptyIntInterval().Lo
		}
		if was.Hi == hi {
			hi = agg.EmptyIntInterval().Hi
		}
		for _, r := range c.entries {
			if lo == iv.Lo && hi == iv.Hi {
				break
			}
			o := r.Prof.Size[x]
			lo, hi = min(lo, o.Lo), max(hi, o.Hi)
		}
		iv.Lo, iv.Hi = lo, hi
	}
	for i := 0; i < cs.KW.Len(); i++ {
		if !gone.KW.Get(i) {
			continue
		}
		carried := false
		for _, r := range c.entries {
			if carried = r.Prof.KW.Get(i); carried {
				break
			}
		}
		if !carried {
			cs.KW.Clear(i)
		}
	}
}

// Grid is the ER-grid G_ER. It is not safe for concurrent use, queries
// included: Candidates stamps cells.
type Grid struct {
	d int // attributes (grid dimensionality)
	n int // cells per dimension

	cells map[int]*cell     // materialized (non-empty) cells by id
	recs  map[string]*Entry // rid -> entry
	// order holds the residents by ascending ordinal; a removed entry
	// leaves a nil tombstone until compaction.
	order   []*Entry
	dead    int // tombstones in order
	nextOrd int64
	epoch   uint64 // Candidates call counter, see cell.stamp

	lo, hi, idx []int    // Insert's box-enumeration scratch
	survivors   []*Entry // Survivors' result buffer
}

// New creates a grid with cellsPerDim cells along each of the d dimensions.
// Its residents' profiles must share one pivot selection and keyword set, so
// that their Bounds have one shape.
func New(d, cellsPerDim int) (*Grid, error) {
	if d < 1 || cellsPerDim < 1 {
		return nil, fmt.Errorf("grid: bad geometry d=%d cells=%d", d, cellsPerDim)
	}
	if math.Pow(float64(cellsPerDim), float64(d)) >= math.MaxInt {
		return nil, fmt.Errorf("grid: %d^%d cells overflow the cell id", cellsPerDim, d)
	}
	return &Grid{
		d: d, n: cellsPerDim,
		cells: make(map[int]*cell),
		recs:  make(map[string]*Entry),
		lo:    make([]int, d), hi: make([]int, d), idx: make([]int, d),
	}, nil
}

// Len returns the number of resident tuples.
func (g *Grid) Len() int { return len(g.recs) }

// CellCount returns the number of materialized (non-empty) cells.
func (g *Grid) CellCount() int { return len(g.cells) }

// coord clamps v into [0,1] and returns its cell index.
func (g *Grid) coord(v float64) int {
	if v < 0 {
		v = 0
	}
	i := int(v * float64(g.n))
	if i >= g.n {
		i = g.n - 1
	}
	return i
}

// Insert appends an entry to the resident order, adds it to every cell its
// main-pivot box intersects and extends those cells' aggregates: O(cells in
// the box). Inserting an RID already present is an error (evict first).
//
//terids:hotpath
func (g *Grid) Insert(e *Entry) error {
	rid := e.Rec.RID
	if _, dup := g.recs[rid]; dup {
		return fmt.Errorf("grid: duplicate insert of %s", rid)
	}
	if n := len(e.Prof.Dist); n != g.d {
		return fmt.Errorf("grid: entry dimensionality %d, grid %d", n, g.d)
	}
	// The entry's box is its main-pivot distance intervals; an attribute
	// with no candidate spans the whole axis.
	total := 1
	for x := range g.idx {
		lo, hi := 0.0, 1.0
		if iv := e.Prof.Dist[x][0]; !iv.IsEmpty() {
			lo, hi = iv.Lo, iv.Hi
		}
		g.lo[x], g.hi[x] = g.coord(lo), g.coord(hi)
		g.idx[x] = g.lo[x]
		total *= g.hi[x] - g.lo[x] + 1
	}
	g.nextOrd++
	e.ord = g.nextOrd
	e.pos = len(g.order)
	g.order = append(g.order, e)
	g.recs[rid] = e

	// Walk the box like an odometer, last dimension fastest.
	e.cells = make([]*cell, 0, total)
	for x := 0; x >= 0; {
		id := 0
		for _, v := range g.idx {
			id = id*g.n + v
		}
		c, ok := g.cells[id]
		if ok {
			c.bounds.Merge(e.Prof.Bounds)
		} else {
			c = &cell{id: id, bounds: e.Prof.Bounds.Clone()}
			g.cells[id] = c
		}
		c.entries = append(c.entries, e)
		e.cells = append(e.cells, c)
		for x = g.d - 1; x >= 0; x-- {
			if g.idx[x]++; g.idx[x] <= g.hi[x] {
				break
			}
			g.idx[x] = g.lo[x]
		}
	}
	return nil
}

// Remove evicts a tuple (window expiry): it leaves each of its cells by
// pointer identity and only the aggregate bounds it attained are rescanned
// (cell.shrink), so the usual cost is O(cells in the box). It reports
// whether the RID was present.
//
//terids:hotpath
func (g *Grid) Remove(rid string) bool {
	e, ok := g.recs[rid]
	if !ok {
		return false
	}
	delete(g.recs, rid)
	for _, c := range e.cells {
		c.drop(e)
		if len(c.entries) == 0 {
			delete(g.cells, c.id)
		} else {
			c.shrink(e.Prof.Bounds)
		}
	}
	e.cells = nil
	g.order[e.pos] = nil
	if g.dead++; g.dead > len(g.order)/2 {
		g.compact()
	}
	return true
}

// compact squeezes the tombstones out of order; Remove calls it once they
// outnumber the residents, which keeps it amortized O(1) per removal.
func (g *Grid) compact() {
	live := g.order[:0]
	for _, e := range g.order {
		if e != nil {
			e.pos = len(live)
			live = append(live, e)
		}
	}
	clear(g.order[len(live):])
	g.order, g.dead = live, 0
}

// Export returns the resident entries in insertion-ordinal order — the
// minimal state a checkpoint needs. Cells, aggregates, and ordinals are
// derived state that Import rebuilds.
func (g *Grid) Export() []*Entry {
	out := make([]*Entry, 0, len(g.recs))
	g.Each(func(e *Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Import bulk-loads exported entries into an empty grid, preserving their
// relative order (fresh ordinals are assigned in slice order). The entries
// are re-wrapped, not aliased, so the source grid — which may use a
// different geometry — is left untouched.
func (g *Grid) Import(entries []*Entry) error {
	if len(g.recs) != 0 {
		return fmt.Errorf("grid: import into non-empty grid (%d residents)", len(g.recs))
	}
	for _, e := range entries {
		if err := g.Insert(&Entry{Rec: e.Rec, Prof: e.Prof}); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the resident entry for rid, if any.
func (g *Grid) Get(rid string) (*Entry, bool) {
	e, ok := g.recs[rid]
	return e, ok
}

// Each visits every resident entry once, in insertion-ordinal order.
func (g *Grid) Each(visit func(*Entry) bool) {
	for _, e := range g.order {
		if e != nil && !visit(e) {
			return
		}
	}
}

// CandidateStats reports how much work a Candidates call did.
type CandidateStats struct {
	CellsVisited int
	CellsPruned  int
	Emitted      int
}

// Query parameterizes a Candidates call. The Disable flags turn off
// cell-level pruning strategies for ablation studies (results are
// unchanged — pruning is safe — only cost moves).
type Query struct {
	Gamma        float64
	DisableTopic bool
	DisableSim   bool
}

// Candidates streams the entries that survive cell-level pruning against
// query profile q (Theorem 4.1 at cell granularity via keyword aggregates,
// Theorem 4.2 via distance/size aggregates): entries of other streams
// (stream != q's stream) held by at least one surviving cell. Each is
// emitted exactly once, however many cells hold it, in strictly increasing
// Ord() — within any partition that is arrival order, and the engine's merge
// depends on it, so callers must not reorder. A visit that returns false
// therefore stops at a deterministic entry. Tuple-level pruning is the
// caller's job. Cost: one pass over the cells plus one over the residents.
//
//terids:hotpath
func (g *Grid) Candidates(q *prune.Profile, opt Query, visit func(*Entry) bool) CandidateStats {
	var stats CandidateStats
	g.epoch++
	for _, c := range g.cells {
		stats.CellsVisited++
		// Cell-level topic pruning: if the query tuple can never carry a
		// keyword, only cells that may contain one can form result pairs.
		if !opt.DisableTopic && !q.MayKW && !c.bounds.KW.Any() {
			stats.CellsPruned++
			continue
		}
		// Cell-level similarity upper bound over the cell aggregate.
		if !opt.DisableSim && prune.SimPrune(q.Bounds, c.bounds, opt.Gamma) {
			stats.CellsPruned++
			continue
		}
		c.stamp = g.epoch
	}
	qStream := q.Im.R.Stream
	for _, e := range g.order {
		if e == nil || e.Rec.Stream == qStream {
			continue
		}
		for _, c := range e.cells {
			if c.stamp != g.epoch {
				continue
			}
			stats.Emitted++
			if !visit(e) {
				return stats
			}
			break
		}
	}
	return stats
}

// Survivors collects what Candidates emits into a buffer the grid owns, so
// a caller resolving one arrival after another allocates nothing here. The
// result is valid until the next Survivors call on g.
func (g *Grid) Survivors(q *prune.Profile, opt Query) []*Entry {
	g.survivors = g.survivors[:0]
	g.Candidates(q, opt, func(e *Entry) bool {
		g.survivors = append(g.survivors, e)
		return true
	})
	return g.survivors
}
