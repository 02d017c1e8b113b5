package engine

import (
	"terids/internal/prune"
	"terids/internal/tuple"
)

// Shard assignment is pure load placement: resolution broadcasts every
// query to all shards, so result correctness never depends on where a tuple
// resides. Routing by topic keeps tuples about the same subject co-located,
// which concentrates the surviving candidate pairs of topic-heavy queries
// in few shards and lets the other shards cell-prune cheaply.
//
// The dominant topic of a tuple is the query keyword carrying the highest
// probability mass across the imputed candidate distributions (sum of
// candidate existence probabilities of keyword-bearing candidates). Tuples
// whose topic distribution straddles shards — two keywords with comparable
// mass assigned to different shards — take the broadcast-residency path and
// are inserted into every shard (the merger dedups their emissions).
// Keyword-free tuples hash on their RID, spreading the topic-neutral bulk
// uniformly.
//
// The topic hash is indirected through a fixed-size slot table (the engine's
// Layout): topic → fnv32a % LayoutSlots → slot → layout[slot] → shard. The
// default layout is the plain modulo assignment; the rebalancer installs
// weighted tables that split hot slots' neighbours away from overloaded
// shards. Because placement is free, swapping the table never changes the
// emitted pairs.

// straddleRatio: a secondary topic within this fraction of the dominant
// topic's mass makes the residency ambiguous enough to broadcast.
const straddleRatio = 0.5

// fnv32a is a tiny inline FNV-1a, deterministic across runs and platforms.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// slotOf maps a topic (or RID) to its layout slot.
func slotOf(s string) int { return int(fnv32a(s) % LayoutSlots) }

// keywordMass sums, over attributes, the candidate probability mass of
// candidates containing kw — an upper-bound style weight of how much of the
// tuple's possible-worlds mass carries this topic.
func keywordMass(im *tuple.Imputed, kw uint32) float64 {
	m := 0.0
	for _, d := range im.Dists {
		for _, c := range d.Cands {
			if c.Toks.Contains(kw) {
				m += c.P
			}
		}
	}
	return m
}

// internHomes (re)builds the interned home-shard tables for the current
// shard count: homeSingle[sh] is the shared single-home slice for shard sh,
// homeAll the shared broadcast slice. homeShards returns these directly, so
// repeated topics stop allocating per arrival; every consumer treats them as
// read-only. Called from install (before residents are re-homed), never
// concurrently with the pipeline.
func (e *Engine) internHomes() {
	k := e.cfg.Shards
	e.homeSingle = make([][]int, k)
	for i := 0; i < k; i++ {
		e.homeSingle[i] = []int{i}
	}
	e.homeAll = make([]int, k)
	for i := range e.homeAll {
		e.homeAll[i] = i
	}
}

// homeShards picks the grid partitions an arrival resides in, plus the
// layout slot its residency is charged to (-1 for broadcast residents, whose
// placement the rebalancer cannot move). The returned slice aliases the
// engine's interned tables and must never be mutated. Called from impute
// workers and the restore path only — never concurrently with a layout swap,
// because the pipeline is stopped at the rebalance barrier.
//
//terids:hotpath
func (e *Engine) homeShards(prof *prune.Profile) (homes []int, slot int) {
	kws := e.kwIDs
	var best, second float64
	bestKW, secondKW := -1, -1
	for i := range kws {
		if !prof.KW.Get(i) {
			continue
		}
		m := keywordMass(prof.Im, kws[i])
		switch {
		case m > best || (m == best && bestKW < 0):
			second, secondKW = best, bestKW
			best, bestKW = m, i
		case m > second || (m == second && secondKW < 0):
			second, secondKW = m, i
		}
	}
	if bestKW < 0 {
		// Topic-neutral tuple: uniform spread by RID.
		s := slotOf(prof.Im.R.RID)
		return e.homeSingle[e.layout[s]], s
	}
	s1 := e.kwSlots[bestKW]
	if secondKW >= 0 && second >= straddleRatio*best {
		if s2 := e.kwSlots[secondKW]; e.layout[s2] != e.layout[s1] {
			// Straddles shards: broadcast residency.
			return e.homeAll, -1
		}
	}
	return e.homeSingle[e.layout[s1]], s1
}
