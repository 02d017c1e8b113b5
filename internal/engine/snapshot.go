package engine

import (
	"fmt"
	"sort"

	"terids/internal/core"
	"terids/internal/grid"
	"terids/internal/snapshot"
	"terids/internal/stream"
)

// Flush is the barrier without the capture: it pauses intake and returns
// once every arrival submitted before the call is fully processed — entity
// set updated, trace retained, OnResult returned — or the pipeline has
// failed. Like Checkpoint it must not be called from OnResult.
func (e *Engine) Flush() error {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return e.flushLocked()
}

// flushLocked drains the pipeline to the current watermark. Caller holds
// subMu (so the watermark cannot advance). Submitters between sequence
// assignment and injection are waited for first: their sequence numbers are
// already assigned, so the merger cannot reach the watermark — and intake
// must not be closed under them — until they have landed.
func (e *Engine) flushLocked() error {
	e.inflight.Wait()
	target := e.seq.Load()
	e.resultsMu.Lock()
	for e.completed < target && e.Err() == nil {
		e.drained.Wait()
	}
	e.resultsMu.Unlock()
	return e.Err()
}

// Checkpoint is the engine's barrier snapshot: it pauses intake (new
// submissions block on the submission lock), lets the impute pool, router,
// shards, and merger drain every in-flight arrival, and captures all K shard
// grids, the window slices, the entity set, and the merger watermark at a
// single sequence number S — then releases intake. The pipeline goroutines
// are never stopped; they simply go idle at the barrier.
//
// State gathering is race-free without extra locks on the shard/router state
// because of the pipeline's happens-before chain: each stage's writes for
// sequence n precede its channel send for n, the merger's receive precedes
// its completed-counter update under resultsMu, and the barrier reads the
// counter under resultsMu before touching any stage state.
//
// The returned checkpoint can be restored at any shard count K' via
// NewFromSnapshot, or into a single-threaded core.Processor.
func (e *Engine) Checkpoint() (*snapshot.Checkpoint, error) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return e.checkpointLocked()
}

// checkpointLocked is the barrier plus the state capture, shared by
// Checkpoint and swap. Caller holds subMu.
//
//terids:deterministic
func (e *Engine) checkpointLocked() (*snapshot.Checkpoint, error) {
	if err := e.flushLocked(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint aborted, pipeline failed: %w", err)
	}
	e.resultsMu.RLock()
	defer e.resultsMu.RUnlock()

	// Arrival sequences live in the shards' residency maps.
	seqOf := make(map[string]int64)
	for _, s := range e.shards {
		//lint:ignore nodeterm iteration order erased: residents are sorted by arrival seq below
		for rid, sq := range s.seqOf {
			seqOf[rid] = sq
		}
	}

	recs := e.windows.Export()
	for _, r := range recs {
		if _, ok := seqOf[r.RID]; !ok {
			return nil, fmt.Errorf("engine: window resident %s missing from every shard", r.RID)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return seqOf[recs[i].RID] < seqOf[recs[j].RID] })

	c := core.NewCheckpointHeader(e.step.Shared(), e.cfg.Core)
	c.Seq = e.seq.Load()
	c.Completed = e.completed
	c.Rejected = e.rejected
	c.Shards = e.cfg.Shards
	for _, r := range recs {
		c.Residents = append(c.Residents, core.ResidentFromRecord(r, seqOf[r.RID]))
	}
	if err := core.CheckpointPairs(e.results, c); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint self-check: %w", err)
	}
	return c, nil
}

// install is the one place engine state comes into being: it builds the
// windows, the cfg.Shards shard grids, and stage channels, then loads
// checkpoint c — residents re-inserted in arrival order with profiles and
// residency recomputed, the entity set, the progress counters — and sets
// the sequence space to its watermark. A nil c is genesis, the empty
// checkpoint at sequence zero. No pipeline goroutine may be running, and
// after an error none may be started.
//
//terids:deterministic
func (e *Engine) install(c *snapshot.Checkpoint) error {
	// Every fallible construction happens into locals first: a failure here
	// must not publish half-built state (a shards slice with nil entries
	// would panic a concurrent Stats/Imbalance reader).
	k := e.cfg.Shards
	windows, err := stream.NewMultiWindow(e.cfg.Core.Streams, e.cfg.Core.WindowSize)
	if err != nil {
		return err
	}
	shardCh := make([]chan shardCmd, k)
	shards := make([]*shard, k)
	for i := range shards {
		g, err := e.step.NewGrid()
		if err != nil {
			return err
		}
		shardCh[i] = make(chan shardCmd, e.cfg.QueueDepth)
		shards[i] = newShard(i, e, g)
	}
	if c == nil {
		c = &snapshot.Checkpoint{} // genesis: no residents, no pairs, watermark zero
	}
	recs, err := core.CheckpointRecords(e.step.Shared().Schema, c)
	if err != nil {
		return err
	}

	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	e.imputeIn = make(chan []*item, e.cfg.QueueDepth)
	e.imputedOut = make(chan []*item, e.cfg.QueueDepth)
	e.hdrCh = make(chan []header, e.cfg.QueueDepth)
	e.partials = make(chan partial, e.cfg.QueueDepth*k)
	e.shardScratch = make([][]shardItem, k)
	e.windows = windows
	e.shardCh, e.shards = shardCh, shards
	e.live = make(map[string]struct{}, len(recs))

	for i, rec := range recs {
		expired, err := e.windows.Push(rec)
		if err != nil {
			return err
		}
		if expired != nil {
			return fmt.Errorf("engine: checkpoint resident %s overflows stream %d window",
				rec.RID, rec.Stream)
		}
		im, _ := e.step.Impute(rec)
		prof := e.step.Profile(im)
		e.live[rec.RID] = struct{}{}
		s := shards[homeShard(rec.RID, k)]
		if err := s.grid.Insert(&grid.Entry{Rec: rec, Prof: prof}); err != nil {
			return err
		}
		s.seqOf[rec.RID] = c.Residents[i].ArrivalSeq
		s.residents.Add(1)
	}
	results := core.NewResultSet()
	if err := core.RestoreResults(results, recs, c); err != nil {
		return err
	}
	e.startSeq = c.Seq
	e.seq.Store(c.Seq)
	e.resultsMu.Lock()
	e.results, e.completed, e.rejected = results, c.Completed, c.Rejected
	e.resultsMu.Unlock()
	return nil
}

// swap replaces a running engine's state in place: drain to the watermark,
// stop the pipeline (closing intake cascades the shutdown left to right, as
// in Close), install checkpoint c at the engine's own K, restart. The engine
// object, its WAL, OnResult sink, metrics, and journal carry over.
//
// Ownership: the caller holds subMu throughout — that is what keeps arrivals
// out while no pipeline exists — and install runs only after mergeWG.Wait
// has seen the old pipeline's last goroutine exit. If install then fails,
// the old pipeline is gone and no new one started, so the engine is failed:
// submitters and Checkpoint get the error instead of a hang.
func (e *Engine) swap(c *snapshot.Checkpoint) error {
	if e.closed {
		return ErrClosed
	}
	if err := e.flushLocked(); err != nil {
		return err
	}
	close(e.imputeIn)
	e.mergeWG.Wait()
	if err := e.Err(); err != nil {
		return err
	}
	if err := e.install(c); err != nil {
		e.closed = true
		e.fail(err)
		return err
	}
	e.start()
	return nil
}
