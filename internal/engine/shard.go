package engine

import (
	"sync/atomic"

	"terids/internal/core"
	"terids/internal/grid"
	"terids/internal/metrics"
	"terids/internal/obs"
)

// shardItem is one arrival's work for one shard: evict the expired
// residents, resolve the query against the local partition, then (on its
// home shard) insert it.
type shardItem struct {
	it      *item
	removes []string
	insert  bool
}

// shardCmd is one routed batch's work for one shard, delivered in submission
// order over the shard's FIFO channel — N arrivals per channel receive. The
// items slice is pooled; the receiving shard recycles it.
type shardCmd struct {
	items []shardItem
}

// shardPair is one emitted pair tagged with the candidate's global arrival
// sequence, the merge key that restores the Processor's emission order.
type shardPair struct {
	pair    core.Pair
	candSeq int64
}

// partialEntry is one shard's result slice for one arrival.
type partialEntry struct {
	seq   int64
	pairs []shardPair
}

// partial is one shard's answer for one batch — one channel send per
// shardCmd, matching the batched fan-out. Both slices are pooled; the merger
// recycles them.
type partial struct {
	entries []partialEntry
}

// shard is one worker goroutine's state: a grid partition plus the global
// arrival sequence of each resident (for cross-shard deterministic merging).
type shard struct {
	id    int
	e     *Engine
	grid  *grid.Grid
	seqOf map[string]int64 // resident RID -> global arrival seq

	// residents/resolved/inserts/erTime are read by Stats() while the worker
	// runs. residents tracks current occupancy; inserts is the monotonic
	// insert count, whose per-interval delta is the shard's submit rate;
	// erTime is the shard's cumulative resolve time in nanoseconds.
	residents atomic.Int64
	resolved  atomic.Int64
	inserts   atomic.Int64
	erTime    atomic.Int64

	// met is the shard's resolve-latency histogram, nil when
	// instrumentation is off.
	met *obs.Histogram
}

func newShard(id int, e *Engine, g *grid.Grid) *shard {
	s := &shard{id: id, e: e, grid: g, seqOf: make(map[string]int64)}
	if e.met != nil {
		s.met = e.met.shardResolve(id)
	}
	return s
}

// run processes the shard's command stream until it closes or the engine
// fails. All grid state is confined to this goroutine. Each command carries a
// batch of arrivals; the shard answers with one multi-entry partial.
//
//terids:hotpath
func (s *shard) run() {
	defer s.e.shardWG.Done()
	step := s.e.step
	for cmd := range s.e.shardCh[s.id] {
		entries := s.e.partEntriesPool.get(len(cmd.items))
		for _, ci := range cmd.items {
			var ps metrics.PruneStats
			var sw metrics.Stopwatch
			sw.Start()
			for _, rid := range ci.removes {
				if s.grid.Remove(rid) {
					delete(s.seqOf, rid)
					s.residents.Add(-1)
				}
			}
			q := ci.it.prof.prof
			pairs := step.Resolve(s.grid, q, &ps)
			out := s.e.shardPairsPool.get(len(pairs))
			qRID := ci.it.rec.RID
			for _, p := range pairs {
				cand := p.A.RID
				if cand == qRID {
					cand = p.B.RID
				}
				out = append(out, shardPair{pair: p, candSeq: s.seqOf[cand]})
			}
			if ci.insert {
				if err := s.grid.Insert(&grid.Entry{Rec: ci.it.rec, Prof: q}); err != nil {
					s.e.fail(err)
					return
				}
				s.seqOf[qRID] = ci.it.seq
				s.residents.Add(1)
				s.inserts.Add(1)
			}
			er := sw.Lap()
			s.e.acc.Add(metrics.Totals{Breakdown: metrics.Breakdown{ER: er}, Prune: ps})
			s.resolved.Add(1)
			s.erTime.Add(int64(er))
			if s.met != nil {
				s.met.Observe(int64(er))
			}
			if tr := ci.it.tr; tr != nil && tr.ShardNs != nil {
				tr.ShardNs[s.id] = int64(er)
			}
			entries = append(entries, partialEntry{seq: ci.it.seq, pairs: out})
		}
		s.e.shardItemsPool.put(cmd.items)
		select {
		case s.e.partials <- partial{entries: entries}:
		case <-s.e.ctx.Done():
			return
		}
	}
}
