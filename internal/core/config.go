// Package core implements the TER-iDS operator (Algorithms 1 and 2): online
// imputation of incomplete tuples and topic-aware entity resolution over
// sliding windows of n data streams, via a join over the CDD-index,
// DR-index, and ER-grid — plus the five baselines of Section 6.1 and the
// straightforward reference method of Section 2.3.
package core

import (
	"fmt"
	"sort"

	"terids/internal/impute"
	"terids/internal/metrics"
	"terids/internal/tuple"
)

// Config carries the TER-iDS problem parameters (problem statement,
// Section 2.3) and implementation knobs.
type Config struct {
	// Keywords is the query topic keyword set K. Empty means "all topics"
	// (every tuple is treated as topic-relevant, per the discussion in
	// Section 2.3).
	Keywords []string
	// Gamma is the similarity threshold γ ∈ (0, d).
	Gamma float64
	// Alpha is the probabilistic threshold α ∈ [0, 1).
	Alpha float64
	// WindowSize is w, the per-stream count-based sliding window size.
	WindowSize int
	// Streams is n, the number of incomplete data streams.
	Streams int
	// CellsPerDim is the ER-grid resolution (cells along each dimension).
	CellsPerDim int
	// Impute bounds the per-attribute candidate lists.
	Impute impute.Config
	// Ablate disables individual pruning strategies (for the ablation
	// benchmarks). Results are unchanged — pruning is safe — only cost
	// moves.
	Ablate AblateConfig
	// TrackPruning enables exact per-pair pruning attribution (Figure 4).
	// It adds an O(live tuples) bookkeeping pass per arrival, so
	// efficiency experiments leave it off; survivor-level counters are
	// always collected.
	TrackPruning bool
}

// AblateConfig switches off pruning strategies one by one.
type AblateConfig struct {
	// Topic disables Theorem 4.1 (tuple- and cell-level).
	Topic bool
	// Sim disables Theorem 4.2 (tuple- and cell-level).
	Sim bool
	// Prob disables Theorem 4.3.
	Prob bool
	// InstPair disables Theorem 4.4 (full Equation 2 is computed).
	InstPair bool
}

// Validate checks parameter ranges against the schema dimensionality.
func (c *Config) Validate(d int) error {
	if c.Gamma <= 0 || c.Gamma >= float64(d) {
		return fmt.Errorf("core: gamma %v outside (0, %d)", c.Gamma, d)
	}
	if c.Alpha < 0 || c.Alpha >= 1 {
		return fmt.Errorf("core: alpha %v outside [0, 1)", c.Alpha)
	}
	if c.WindowSize < 1 {
		return fmt.Errorf("core: window size %d < 1", c.WindowSize)
	}
	if c.Streams < 2 {
		return fmt.Errorf("core: need >= 2 streams, got %d", c.Streams)
	}
	if c.CellsPerDim == 0 {
		c.CellsPerDim = 5
	}
	if c.CellsPerDim < 1 {
		return fmt.Errorf("core: cells per dim %d < 1", c.CellsPerDim)
	}
	if c.Impute.MaxCandidates == 0 {
		c.Impute = impute.DefaultConfig()
	}
	return nil
}

// Pair is one TER-iDS result: two tuples from different streams
// representing the same entity with probability > α.
type Pair struct {
	A, B *tuple.Record // normalized: A.RID < B.RID
	Prob float64
}

// Key returns the normalized pair key.
func (p Pair) Key() metrics.PairKey { return metrics.Key(p.A.RID, p.B.RID) }

// newPair normalizes tuple order.
func newPair(a, b *tuple.Record, prob float64) Pair {
	if a.RID > b.RID {
		a, b = b, a
	}
	return Pair{A: a, B: b, Prob: prob}
}

// ResultSet is the entity set ES of Algorithm 1: the live matching pairs
// over the current windows, with per-RID bookkeeping so expired tuples'
// pairs can be evicted.
type ResultSet struct {
	pairs map[metrics.PairKey]Pair
	byRID map[string]map[metrics.PairKey]struct{}
}

// NewResultSet returns an empty entity set.
func NewResultSet() *ResultSet {
	return &ResultSet{
		pairs: make(map[metrics.PairKey]Pair),
		byRID: make(map[string]map[metrics.PairKey]struct{}),
	}
}

// Add inserts (or refreshes) a pair.
func (rs *ResultSet) Add(p Pair) {
	k := p.Key()
	rs.pairs[k] = p
	for _, rid := range []string{p.A.RID, p.B.RID} {
		m, ok := rs.byRID[rid]
		if !ok {
			m = make(map[metrics.PairKey]struct{})
			rs.byRID[rid] = m
		}
		m[k] = struct{}{}
	}
}

// RemoveRID drops every pair involving rid (window expiry, Algorithm 2
// lines 4-5) and returns how many pairs were removed.
func (rs *ResultSet) RemoveRID(rid string) int {
	keys, ok := rs.byRID[rid]
	if !ok {
		return 0
	}
	n := 0
	for k := range keys {
		p, live := rs.pairs[k]
		if !live {
			continue
		}
		delete(rs.pairs, k)
		n++
		other := p.A.RID
		if other == rid {
			other = p.B.RID
		}
		if m, ok := rs.byRID[other]; ok {
			delete(m, k)
			if len(m) == 0 {
				delete(rs.byRID, other)
			}
		}
	}
	delete(rs.byRID, rid)
	return n
}

// Len returns the number of live pairs.
func (rs *ResultSet) Len() int { return len(rs.pairs) }

// Has reports whether the pair (a, b) is in the set.
func (rs *ResultSet) Has(a, b string) bool {
	_, ok := rs.pairs[metrics.Key(a, b)]
	return ok
}

// Pairs returns the live pairs sorted by key for deterministic output.
func (rs *ResultSet) Pairs() []Pair {
	out := make([]Pair, 0, len(rs.pairs))
	for _, p := range rs.pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.RID != out[j].A.RID {
			return out[i].A.RID < out[j].A.RID
		}
		return out[i].B.RID < out[j].B.RID
	})
	return out
}

// Keys returns the live pair keys as a set (for metrics.Compare).
func (rs *ResultSet) Keys() map[metrics.PairKey]bool {
	out := make(map[metrics.PairKey]bool, len(rs.pairs))
	for k := range rs.pairs {
		out[k] = true
	}
	return out
}

// Resolver is the common contract of TER-iDS and the baselines: feed
// records in arrival order with Advance, read the live entity set with
// Results.
type Resolver interface {
	// Name identifies the method ("TER-iDS", "Ij+GER", "CDD+ER", "DD+ER",
	// "er+ER", "con+ER", "naive").
	Name() string
	// Advance processes one arriving record: evicts its stream's expired
	// tuple, imputes, resolves, and updates the entity set. It returns the
	// pairs newly added for this record.
	Advance(r *tuple.Record) ([]Pair, error)
	// Results returns the live entity set ES.
	Results() *ResultSet
	// Breakdown returns accumulated online costs (Figure 6 phases).
	Breakdown() metrics.Breakdown
	// PruneStats returns accumulated pruning counters (Figure 4); zero for
	// methods that do not prune.
	PruneStats() metrics.PruneStats
}
