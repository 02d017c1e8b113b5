package engine

import (
	"cmp"
	"slices"
	"time"

	"terids/internal/core"
	"terids/internal/metrics"
)

// pending accumulates one arrival's header and its K shard partials. pending
// values are recycled through the merger's local freelist; reset clears one
// for reuse keeping its pairs capacity.
type pending struct {
	hdr    header
	hasHdr bool
	pairs  []shardPair
	got    int
	// arrived is when the first piece for this sequence reached the merger
	// (zero when instrumentation is off) — the reorder-buffer hold clock.
	arrived time.Time
}

func (p *pending) reset() {
	pairs := p.pairs[:0]
	*p = pending{pairs: pairs}
}

// merger joins the K partial result slices per arrival, restores submission
// order, and maintains the live entity set — the single writer of
// e.results. Intake is batched: one receive absorbs a routed run's headers
// or one shard's multi-entry partial.
//
//terids:hotpath
//terids:deterministic
func (e *Engine) merger() {
	defer e.mergeWG.Done()
	// A Checkpoint barrier may be waiting on the drain condition when the
	// merger exits (close or failure); wake it so it can re-check. The lock
	// prevents the broadcast from being lost between a waiter's predicate
	// check and its Wait().
	defer func() {
		e.resultsMu.Lock()
		e.drained.Broadcast()
		e.resultsMu.Unlock()
	}()
	win := seqWindow[*pending]{next: e.startSeq}
	// free recycles pending accumulators (merger-local, so no lock).
	var free []*pending
	get := func(seq int64) *pending {
		if p, ok := win.get(seq); ok {
			return p
		}
		var p *pending
		if n := len(free); n > 0 {
			p = free[n-1]
			free[n-1] = nil
			free = free[:n-1]
		} else {
			p = &pending{}
		}
		if e.met != nil {
			//lint:ignore nodeterm merge-hold instrumentation; never touches emitted bytes
			p.arrived = time.Now()
		}
		win.put(seq, p)
		return p
	}
	hdrCh, parts := e.hdrCh, e.partials
	for hdrCh != nil || parts != nil {
		select {
		case hs, ok := <-hdrCh:
			if !ok {
				hdrCh = nil
				continue
			}
			for i := range hs {
				p := get(hs[i].seq)
				p.hdr = hs[i]
				p.hasHdr = true
			}
			e.headersPool.put(hs)
		case pt, ok := <-parts:
			if !ok {
				parts = nil
				continue
			}
			for i := range pt.entries {
				en := &pt.entries[i]
				p := get(en.seq)
				p.pairs = append(p.pairs, en.pairs...)
				p.got++
				e.shardPairsPool.put(en.pairs)
			}
			e.partEntriesPool.put(pt.entries)
		case <-e.ctx.Done():
			return
		}
		for {
			p, ok := win.peekNext()
			if !ok || !p.hasHdr || (!p.hdr.skip && p.got < e.cfg.Shards) {
				break
			}
			win.popNext()
			e.finalize(p)
			// finalize happens-after every shard's partial send for this
			// seq, so nothing can still be reading the item wrapper.
			e.itemPool.put(p.hdr.it)
			p.reset()
			free = append(free, p)
		}
		if m := e.met; m != nil {
			m.mergePending.Set(float64(win.len()))
		}
	}
}

// finalize emits one in-order arrival: expired pairs leave the entity set,
// merged pairs enter it in candidate-arrival order — exactly the grid
// insertion-ordinal order core.Processor.Advance returns (each candidate
// resides in one shard, so no two partials carry the same pair). Completion
// is published last, after the trace is retained and OnResult has returned,
// so a barrier that has seen completed reach the watermark (Flush,
// Checkpoint) has seen every effect of every arrival below it.
func (e *Engine) finalize(p *pending) {
	res := Result{Seq: p.hdr.seq, RID: p.hdr.rid, Rejected: p.hdr.skip}
	if !res.Rejected {
		slices.SortFunc(p.pairs, func(a, b shardPair) int {
			return cmp.Compare(a.candSeq, b.candSeq)
		})
		pairs := make([]core.Pair, 0, len(p.pairs))
		for _, sp := range p.pairs {
			pairs = append(pairs, sp.pair)
		}
		e.resultsMu.Lock()
		for _, rid := range p.hdr.expired {
			e.results.RemoveRID(rid)
		}
		for _, pr := range pairs {
			e.results.Add(pr)
		}
		e.resultsMu.Unlock()
		e.acc.Add(metrics.Totals{Tuples: 1, Pairs: int64(len(pairs))})
		res.Expired, res.Pairs = p.hdr.expired, pairs
	}
	if m := e.met; m != nil {
		if res.Rejected {
			m.rejected.Inc()
		}
		m.mergeHold.ObserveSince(p.arrived)
	}
	e.completeTrace(p, len(res.Pairs))
	if e.cfg.OnResult != nil {
		e.cfg.OnResult(res)
	}
	e.resultsMu.Lock()
	e.completed++
	if res.Rejected {
		e.rejected++
	}
	e.drained.Broadcast()
	e.resultsMu.Unlock()
}

// completeTrace finishes a sampled arrival's timeline and retains it in the
// trace ring. All upstream trace fields are safe to read here: the header
// send ordered the router's writes, the partial sends ordered each shard's.
func (e *Engine) completeTrace(p *pending, pairs int) {
	tr := p.hdr.tr
	if tr == nil || e.traces == nil {
		return
	}
	//lint:ignore nodeterm trace timing; traces never touch emitted bytes
	tr.MergeHoldNs = int64(time.Since(p.arrived))
	//lint:ignore nodeterm trace timing; traces never touch emitted bytes
	tr.TotalNs = int64(time.Since(tr.start))
	tr.Pairs = pairs
	e.traces.Append(func(int64) Trace { return *tr })
}
