package core

import (
	"fmt"

	"terids/internal/grid"
	"terids/internal/metrics"
	"terids/internal/stream"
	"terids/internal/tuple"
)

// Processor is the TER-iDS operator of Algorithm 2: it maintains the
// ER-grid over the sliding windows, imputes arriving incomplete tuples via
// the CDD-index/DR-index join, prunes candidate pairs with Theorems 4.1-4.4,
// and refines survivors into the entity set ES. It is the single-threaded
// driver over the per-shard Step API; the sharded engine drives the same
// Step across grid partitions.
type Processor struct {
	step    *Step
	windows *stream.MultiWindow
	grid    *grid.Grid
	results *ResultSet

	// seq counts arrivals; seqOf maps each resident RID to its 0-based
	// arrival sequence. Together they make the processor checkpointable at
	// an exact watermark (and its checkpoints loadable by the sharded
	// engine, whose merge order is keyed on arrival sequences).
	seq   int64
	seqOf map[string]int64

	breakdown metrics.Breakdown
	pruneStat metrics.PruneStats
}

// NewProcessor builds the TER-iDS processor over pre-computed Shared state.
func NewProcessor(sh *Shared, cfg Config) (*Processor, error) {
	step, err := NewStep(sh, cfg)
	if err != nil {
		return nil, err
	}
	cfg = step.Config()
	p := &Processor{
		step:    step,
		results: NewResultSet(),
		seqOf:   make(map[string]int64),
	}
	mw, err := stream.NewMultiWindow(cfg.Streams, cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	p.windows = mw
	g, err := step.NewGrid()
	if err != nil {
		return nil, err
	}
	p.grid = g
	return p, nil
}

// Name implements Resolver.
func (p *Processor) Name() string { return "TER-iDS" }

// Results implements Resolver.
func (p *Processor) Results() *ResultSet { return p.results }

// Breakdown implements Resolver.
func (p *Processor) Breakdown() metrics.Breakdown { return p.breakdown }

// PruneStats implements Resolver.
func (p *Processor) PruneStats() metrics.PruneStats { return p.pruneStat }

// Grid exposes the synopsis (tests and diagnostics).
func (p *Processor) Grid() *grid.Grid { return p.grid }

// Advance implements Resolver: one arriving tuple r_t.
func (p *Processor) Advance(r *tuple.Record) ([]Pair, error) {
	sh := p.step.Shared()
	if r.Schema() != sh.Schema {
		return nil, fmt.Errorf("core: record %s uses a foreign schema", r.RID)
	}
	// Expiry (Algorithm 2 lines 2-7): expired tuples of r's stream leave
	// the window, the grid, and the entity set.
	expired, err := p.windows.Push(r)
	if err != nil {
		return nil, err
	}
	if expired != nil {
		p.grid.Remove(expired.RID)
		p.results.RemoveRID(expired.RID)
		delete(p.seqOf, expired.RID)
	}

	// Imputation via the index join (line 9).
	im, bd := p.step.Impute(r)
	p.breakdown.Add(bd)

	var sw metrics.Stopwatch
	sw.Start()
	prof := p.step.Profile(im)

	// ER over the grid with the pruning cascade (lines 14-25).
	newPairs := p.step.Resolve(p.grid, prof, &p.pruneStat)

	// Insert r^p into the grid (lines 11-13).
	if err := p.grid.Insert(&grid.Entry{Rec: r, Prof: prof}); err != nil {
		return nil, err
	}
	p.seqOf[r.RID] = p.seq
	p.seq++
	p.breakdown.ER += sw.Lap()

	for _, pair := range newPairs {
		p.results.Add(pair)
	}
	return newPairs, nil
}
