// Package engine is the sharded, pipelined execution layer over the TER-iDS
// operator: a concurrency harness around core.Step that scales the hot path
// across cores without changing the algorithm's semantics.
//
// The ER-grid is partitioned into K shards. Each shard worker goroutine owns
// one grid.Grid partition — its slice of the windowed tuples — and processes
// a FIFO command stream. K is fixed for an engine's lifetime: it is set at
// construction (or adopted from the checkpoint a restore starts from), and
// changes only by restoring a checkpoint into a new engine at another K.
// An arriving tuple flows through a bounded-channel pipeline:
//
//	Submit → [impute workers ×W] → [router] → [shard workers ×K] → [merger]
//
// Imputation (the CDD-index/DR-index join) reads only immutable Shared
// state, so a pool of W workers imputes arrivals concurrently; a reorder
// buffer in the router restores submission order. The router owns the
// per-stream sliding windows (O(1) ring-buffer pushes — sequential state
// that must see arrivals in order), computes expirations, and fans each
// arrival out to every shard: candidates may reside anywhere, so resolution
// is a broadcast, while residency (grid insertion) goes to the one shard
// fnv32a(RID) mod K names (see topic.go). Each shard resolves the query
// against its own partition concurrently with the other shards; the merger
// joins the K partial results per arrival, restores deterministic output
// order with a sequence-numbered reorder buffer, and maintains the live
// entity set.
//
// Determinism: for the same submission order, emitted pairs are identical —
// order and probabilities included — to single-threaded core.Processor.
// Every pruning rule is safe under partitioning (cell aggregates over any
// subset of residents still bound each member), so the surviving pair set
// never depends on the partitioning; the merger sorts each arrival's pairs
// by the candidate's global arrival sequence, which is exactly the grid
// insertion-ordinal order the Processor emits.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"terids/internal/core"
	"terids/internal/metrics"
	"terids/internal/obs"
	"terids/internal/prune"
	"terids/internal/snapshot"
	"terids/internal/stream"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// ErrOverloaded is returned by TrySubmit when the ingest queue is full
// (backpressure; serving layers map it to HTTP 429).
var ErrOverloaded = errors.New("engine: ingest queue full")

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("engine: closed")

// ErrInvalidRecord wraps synchronous Submit/TrySubmit rejections (foreign
// schema, out-of-range stream id). Invalid input never reaches — and never
// poisons — the pipeline; serving layers map it to HTTP 400.
var ErrInvalidRecord = errors.New("invalid record")

// Config tunes the engine around an embedded core configuration.
type Config struct {
	// Core is the TER-iDS problem configuration (validated by core).
	Core core.Config
	// Shards is K, the number of ER-grid partitions / shard workers.
	// Default: GOMAXPROCS capped at 8.
	// The imputation pool has one worker per shard.
	Shards int
	// QueueDepth bounds each pipeline channel. Default: 64.
	QueueDepth int
	// OnResult, when set, is invoked by the merger for every processed
	// arrival, in submission order. It must not call back into the engine's
	// submission path or Checkpoint (both would deadlock the merger).
	OnResult func(Result)
	// WAL, when set, makes every accepted arrival durable before it enters
	// the pipeline: Submit reserves the arrival's slot in the log under the
	// submission lock (preserving sequence order) and then waits for the
	// group commit outside it, so concurrent submitters share fsyncs. A
	// result is only ever emitted for an arrival the log already holds.
	// Appends during recovery replay are idempotent no-ops (the log already
	// holds those sequences). The engine does not own the log: closing the
	// engine leaves it open, and it must outlive the engine.
	WAL *wal.Log
	// Obs selects the registry the engine publishes its stage metrics into.
	// Nil means obs.Default(), the process-wide registry /metrics serves.
	Obs *obs.Registry
	// Journal selects the event journal lifecycle events (checkpoints,
	// pipeline failure) are recorded into. Nil means obs.DefaultJournal(),
	// the journal GET /events serves; ObsOff disables it with the rest of
	// the instrumentation.
	Journal *obs.Journal
	// ObsOff disables all metric and trace instrumentation (used by
	// deep-replay throwaway engines and overhead benchmarks).
	ObsOff bool
	// TraceSample, when > 0, records every Nth arrival's full stage timeline
	// into a bounded ring readable via Traces() (served at GET /trace).
	TraceSample int
}

// registry is the metric registry this configuration publishes into.
func (c *Config) registry() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
}

// Result is the outcome of one processed arrival.
type Result struct {
	// Seq is the 0-based arrival index in submission order.
	Seq int64
	// RID is the arriving record's identifier.
	RID string
	// Rejected reports that the arrival duplicated a live resident's RID
	// and was dropped before touching any state (the Processor would error
	// at grid insertion instead; the engine rejects up front so one bad
	// tuple cannot poison the pipeline).
	Rejected bool
	// Expired lists the RIDs this arrival evicted from the windows.
	Expired []string
	// Pairs are the new matches, in the exact order core.Processor.Advance
	// would return them.
	Pairs []core.Pair
}

// item is one arrival moving through the pipeline. Items are pooled (see
// pool.go): submitBatch gets one, the merger returns it at finalize.
type item struct {
	seq int64
	rec *tuple.Record
	// prof is embedded by value so the impute stage's product costs no
	// allocation of its own.
	prof profileOut
	// enq is when the arrival entered the ingest queue (set only when
	// instrumentation is on; on the durable path, after the group commit so
	// queue wait excludes the WAL wait).
	enq time.Time
	// tr is the arrival's sampled trace, nil for unsampled arrivals.
	tr *Trace
}

// profileOut is the impute stage's product.
type profileOut struct {
	im   *tuple.Imputed
	prof *prune.Profile
	// home is the shard the arrival resides in (see topic.go).
	home int
}

// header is the router → merger side channel: per-arrival bookkeeping the
// merger needs to finalize seq in order.
type header struct {
	seq     int64
	rid     string
	expired []string
	// skip marks a rejected duplicate: the merger expects no shard
	// partials for this sequence number.
	skip bool
	// tr carries the arrival's sampled trace to the merger, which completes
	// and retains it. The router writes all trace fields (and allocates
	// ShardNs) before sending the header, so this send is the merger's
	// happens-before edge for reading them.
	tr *Trace
	// it hands the pooled item wrapper to the merger for recycling at
	// finalize — by then every shard's partial send happens-before, so no
	// stage can still be reading it.
	it *item
}

// Engine is the sharded concurrent TER-iDS executor. Submit goroutines,
// the pipeline stages, and stats readers may all run concurrently.
type Engine struct {
	step *core.Step
	cfg  Config

	ctx    context.Context
	cancel context.CancelFunc

	// subMu serializes sequence assignment and WAL reservation (+ closed).
	// It is NEVER held across a pipeline channel send: a stalled pipeline
	// must not serialize other submitters' WAL reservations (or wedge
	// TrySubmit/Close/Checkpoint behind a blocked send). The router's
	// seq-keyed reorder window restores submission order, so injection can
	// happen outside the lock.
	//terids:nosend
	subMu  sync.Mutex
	closed bool
	// inflight tracks submitters between sequence assignment and pipeline
	// injection; Close and swap wait for them before closing imputeIn
	// (an assigned sequence number MUST reach the pipeline, or the merger's
	// reorder buffer would wait for it forever).
	inflight sync.WaitGroup
	// seq is written only under subMu; atomic so Stats() can read it
	// without queueing behind a backpressured Submit.
	seq atomic.Int64
	// startSeq is the first sequence number the current pipeline handles: 0
	// at genesis, the checkpoint watermark after an install. The router's
	// and merger's reorder buffers release from it.
	startSeq int64

	// stateMu guards the fields a swap replaces — shards, shardCh, the
	// pipeline channels, the windows — against concurrent
	// readers outside the pipeline (Stats, Imbalance). Pipeline goroutines
	// never take it: they are created after a swap completes and stopped
	// before the next one begins.
	stateMu sync.RWMutex

	// The pipeline channels carry batches: submitBatch splits a batch into
	// impute-sized chunks of []*item, the router re-groups in-order items
	// and fans out one shardCmd (N tuples) per shard per batch, shards
	// answer with one multi-entry partial, and headers travel as one slice
	// per routed batch — a single channel hop amortized over N arrivals at
	// every stage.
	imputeIn   chan []*item
	imputedOut chan []*item
	shardCh    []chan shardCmd
	hdrCh      chan []header
	partials   chan partial
	// shardScratch holds the router's per-shard batch under construction
	// (router-owned; length cfg.Shards). A slot is
	// nil after its batch is handed to the shard and refilled from the pool
	// on the next routed run.
	shardScratch [][]shardItem

	// Hot-path pools (see pool.go for the ownership hand-off rules).
	itemPool        itemPool
	itemsPool       *slicePool[*item]
	shardItemsPool  *slicePool[shardItem]
	headersPool     *slicePool[header]
	partEntriesPool *slicePool[partialEntry]
	shardPairsPool  *slicePool[shardPair]
	walBufPool      *slicePool[wal.Entry]

	imputeWG sync.WaitGroup
	shardWG  sync.WaitGroup
	mergeWG  sync.WaitGroup

	// windows is the router-owned sequential stream state; live is the set
	// of resident RIDs (duplicate rejection).
	windows *stream.MultiWindow
	live    map[string]struct{}

	shards []*shard

	// met is nil when Config.ObsOff is set — every stage guards its
	// instrumentation with one pointer check. traces is nil unless
	// Config.TraceSample > 0 (and instrumentation is on). jr is the
	// lifecycle event journal (nil under ObsOff; Record is nil-safe).
	met    *engineMetrics
	traces *obs.Ring[Trace]
	jr     *obs.Journal

	failOnce sync.Once
	failErr  error
	failMu   sync.Mutex

	acc       metrics.Accumulator
	resultsMu sync.RWMutex
	results   *core.ResultSet
	completed int64 // guarded by resultsMu (written by merger)
	rejected  int64 // guarded by resultsMu (written by merger)
	// drained (on resultsMu) is broadcast by the merger after every
	// finalized arrival and on pipeline failure; Checkpoint waits on it for
	// the barrier (completed == seq).
	drained *sync.Cond
}

// New builds and starts a fresh engine over pre-computed Shared state — the
// genesis case of NewFromSnapshot.
func New(sh *core.Shared, cfg Config) (*Engine, error) {
	return NewFromSnapshot(sh, cfg, nil)
}

// NewFromSnapshot builds and starts an engine holding checkpoint c's state —
// taken at any shard count — resuming at its watermark; a nil c means
// genesis, a fresh engine at sequence zero. Residency is re-derived from each
// resident's RID under the new configuration's K', so restoring at a
// different shard count is how K changes; output remains byte-identical to
// an uninterrupted run because resolution never depends on where a tuple
// resides. When the configuration auto-sizes the shard count (Shards == 0)
// the checkpoint's K is adopted, so a deployment recovers at the K it was
// running. K is then fixed for the engine's lifetime.
//
//terids:deterministic
func NewFromSnapshot(sh *core.Shared, cfg Config, c *snapshot.Checkpoint) (*Engine, error) {
	if cfg.Shards == 0 {
		cfg.Shards = checkpointShards(c)
	}
	cfg.fill()
	step, err := core.NewStep(sh, cfg.Core)
	if err != nil {
		return nil, err
	}
	cfg.Core = step.Config()
	if c != nil {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if err := core.CheckpointCompatible(sh, cfg.Core, c); err != nil {
			return nil, err
		}
	}
	// The parts that outlive every state swap: the operator step, pools, and
	// instrumentation. Windows, shard grids, and stage channels are install's
	// job.
	e := &Engine{step: step, cfg: cfg}
	e.drained = sync.NewCond(&e.resultsMu)
	e.ctx, e.cancel = context.WithCancel(context.Background())
	if !cfg.ObsOff {
		e.met = newEngineMetrics(cfg.registry())
		if cfg.TraceSample > 0 {
			e.traces = obs.NewRing[Trace](traceRingCap, 0)
		}
		e.jr = cfg.Journal
		if e.jr == nil {
			e.jr = obs.DefaultJournal()
		}
	}
	ps := func(string) poolStats { return poolStats{} }
	if e.met != nil {
		ps = e.met.poolStats
	}
	e.itemPool.st = ps("item")
	e.itemsPool = newSlicePool[*item](ps("item_chunk"))
	e.shardItemsPool = newSlicePool[shardItem](ps("shard_batch"))
	e.headersPool = newSlicePool[header](ps("header_batch"))
	e.partEntriesPool = newSlicePool[partialEntry](ps("partial_batch"))
	e.shardPairsPool = newSlicePool[shardPair](ps("shard_pairs"))
	e.walBufPool = newSlicePool[wal.Entry](ps("wal_entries"))

	if err := e.install(c); err != nil {
		e.cancel()
		return nil, err
	}
	e.start()
	return e, nil
}

// start launches the pipeline goroutines and wires the shutdown cascade:
// closing imputeIn drains the stages left to right.
func (e *Engine) start() {
	for w := 0; w < e.cfg.Shards; w++ {
		e.imputeWG.Add(1)
		go e.imputeWorker()
	}
	go func() {
		e.imputeWG.Wait()
		close(e.imputedOut)
	}()
	go e.router()
	for _, s := range e.shards {
		e.shardWG.Add(1)
		go s.run()
	}
	go func() {
		e.shardWG.Wait()
		close(e.partials)
	}()
	e.mergeWG.Add(1)
	go e.merger()
}

// fail records the first pipeline error and cancels everything in flight.
func (e *Engine) fail(err error) {
	e.failOnce.Do(func() {
		e.failMu.Lock()
		e.failErr = err
		e.failMu.Unlock()
		e.jr.Record("pipeline_failed", "pipeline failed, engine unusable",
			map[string]any{"error": err.Error()})
		e.cancel()
		// Wake a Checkpoint barrier that is waiting for a drain which will
		// never complete. Broadcast under resultsMu: a waiter between its
		// predicate check and Wait() still holds the lock, so a lock-free
		// broadcast could slip into that window and be lost forever.
		e.resultsMu.Lock()
		e.drained.Broadcast()
		e.resultsMu.Unlock()
	})
}

// Err returns the first pipeline error, if any.
func (e *Engine) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// Submit enqueues one arrival, blocking while the ingest queue is full
// (backpressure). Submission order defines the engine's arrival order.
func (e *Engine) Submit(r *tuple.Record) error {
	one := [1]*tuple.Record{r}
	return e.submitBatch(one[:], true)
}

// TrySubmit enqueues one arrival without blocking; it returns ErrOverloaded
// when the ingest queue is full.
func (e *Engine) TrySubmit(r *tuple.Record) error {
	one := [1]*tuple.Record{r}
	return e.submitBatch(one[:], false)
}

// SubmitBatch enqueues a batch of arrivals as one submission: the whole
// batch is validated up front, its sequence numbers are assigned and its WAL
// slots reserved under one lock acquisition, and it enters the pipeline in
// impute-sized chunks. The batch is accepted or rejected atomically —
// on error no record of it has been enqueued. Output is byte-identical to
// submitting the records one by one with Submit, in slice order. The engine
// does not retain recs itself, but it keeps references to the Records
// (windows, grids), which must not be mutated after submission.
func (e *Engine) SubmitBatch(recs []*tuple.Record) error {
	return e.submitBatch(recs, true)
}

// TrySubmitBatch is SubmitBatch with backpressure: unless the ingest queue
// has room for the whole batch, it returns ErrOverloaded instead of
// blocking — the batch is admitted or rejected atomically, never partially.
func (e *Engine) TrySubmitBatch(recs []*tuple.Record) error {
	return e.submitBatch(recs, false)
}

// chunkSize picks the impute-chunk granularity for an n-record batch:
// enough chunks to keep the impute pool busy (about two per worker), capped
// so one chunk never serializes a large slice of the batch on one worker.
func (e *Engine) chunkSize(n int) int {
	c := (n + 2*e.cfg.Shards - 1) / (2 * e.cfg.Shards)
	if c < 1 {
		c = 1
	}
	if c > 32 {
		c = 32
	}
	return c
}

//terids:hotpath
func (e *Engine) submitBatch(recs []*tuple.Record, wait bool) error {
	if len(recs) == 0 {
		return nil
	}
	schema := e.step.Shared().Schema
	for _, r := range recs {
		if r == nil {
			return fmt.Errorf("engine: nil record in batch: %w", ErrInvalidRecord)
		}
		if r.Schema() != schema {
			return fmt.Errorf("engine: record %s uses a foreign schema: %w", r.RID, ErrInvalidRecord)
		}
		if r.Stream < 0 || r.Stream >= e.cfg.Core.Streams {
			return fmt.Errorf("engine: record %s has stream %d, have %d streams: %w",
				r.RID, r.Stream, e.cfg.Core.Streams, ErrInvalidRecord)
		}
	}
	e.subMu.Lock()
	if e.closed {
		e.subMu.Unlock()
		return ErrClosed
	}
	if err := e.Err(); err != nil {
		e.subMu.Unlock()
		return err
	}
	// Backpressure check happens before the batch commits to its sequence
	// numbers: once sequences are assigned the batch MUST reach the
	// pipeline, so a non-waiting batch is admitted only if ALL of its
	// impute chunks fit in the queue's current free space. For a single
	// record this is exactly the old "queue full" check; for a batch it
	// keeps TrySubmitBatch from blocking mid-injection after admission
	// (free slots may still be stolen by a concurrent submitter in the
	// window before injection — that residual block is brief and bounded).
	if !wait {
		cs := e.chunkSize(len(recs))
		chunks := (len(recs) + cs - 1) / cs
		if len(e.imputeIn)+chunks > cap(e.imputeIn) {
			e.subMu.Unlock()
			return ErrOverloaded
		}
	}
	n := len(recs)
	base := e.seq.Load()
	var tk wal.Ticket
	durable := e.cfg.WAL != nil
	if durable {
		entries := e.walBufPool.get(n)
		for i, r := range recs {
			entries = append(entries, walEntry(base+int64(i), r))
		}
		t, err := e.cfg.WAL.ReserveN(entries, wait)
		e.walBufPool.put(entries)
		if err != nil {
			e.subMu.Unlock()
			if errors.Is(err, wal.ErrFull) {
				return ErrOverloaded
			}
			return fmt.Errorf("engine: wal reserve: %w", err)
		}
		tk = t
	}
	m := e.met
	var now time.Time
	if m != nil {
		//lint:ignore nodeterm queue-wait instrumentation; never touches emitted bytes
		now = time.Now()
	}
	items := e.itemsPool.get(n)
	for i, r := range recs {
		it := e.itemPool.get()
		it.seq = base + int64(i)
		it.rec = r
		if m != nil {
			it.enq = now
			if e.traces != nil && it.seq%int64(e.cfg.TraceSample) == 0 {
				it.tr = &Trace{Seq: it.seq, RID: r.RID, Stream: r.Stream, start: now}
				m.traceSampled.Inc()
			}
		}
		items = append(items, it)
	}
	e.seq.Store(base + int64(n))
	e.inflight.Add(1)
	if m != nil {
		m.arrivals.Add(int64(n))
		m.batchEntries.Observe(int64(n))
	}
	e.subMu.Unlock()
	defer e.inflight.Done()
	if durable {
		// Wait for the group commit outside the submission lock, so
		// concurrent submitters batch into shared fsyncs.
		if err := tk.Wait(); err != nil {
			err = fmt.Errorf("engine: wal append: %w", err)
			e.fail(err)
			return err
		}
		if m != nil {
			//lint:ignore nodeterm WAL-wait instrumentation; never touches emitted bytes
			done := time.Now()
			walWait := done.Sub(now)
			m.walWait.Observe(int64(walWait))
			for _, it := range items {
				if it.tr != nil {
					it.tr.WALWaitNs = int64(walWait)
				}
				// Restart the queue-wait clock: time spent in the group
				// commit is WAL wait, not ingest-queue wait.
				it.enq = done
			}
		}
	}
	// Inject outside subMu — the router's reorder window restores sequence
	// order, so a pipeline stalled here cannot serialize other submitters'
	// WAL reservations (or wedge TrySubmit behind the lock).
	cs := e.chunkSize(n)
	if cs >= n {
		return e.inject(items)
	}
	for off := 0; off < n; off += cs {
		end := off + cs
		if end > n {
			end = n
		}
		chunk := e.itemsPool.get(cs)
		chunk = append(chunk, items[off:end]...)
		if err := e.inject(chunk); err != nil {
			e.itemsPool.put(items)
			return err
		}
	}
	e.itemsPool.put(items)
	return nil
}

// inject sends one impute chunk into the pipeline; the chunk's ownership
// passes to the impute worker that receives it.
//
//terids:hotpath
func (e *Engine) inject(chunk []*item) error {
	select {
	case e.imputeIn <- chunk:
		return nil
	case <-e.ctx.Done():
		// Only a pipeline failure cancels the context while submitters are
		// inflight (Close and swap wait for us first).
		if err := e.Err(); err != nil {
			return err
		}
		return ErrClosed
	}
}

// walEntry converts one accepted arrival into its log form.
func walEntry(seq int64, r *tuple.Record) wal.Entry {
	vals := make([]string, r.D())
	for j := range vals {
		vals[j] = r.Value(j)
	}
	return wal.Entry{
		Seq:      seq,
		RID:      r.RID,
		Stream:   r.Stream,
		TupleSeq: r.Seq,
		EntityID: r.EntityID,
		Values:   vals,
	}
}

// Close drains the pipeline (every submitted arrival is fully processed),
// stops all workers, and returns the first pipeline error, if any. The
// engine cannot be reused afterwards; the final entity set stays readable.
func (e *Engine) Close() error {
	e.subMu.Lock()
	first := !e.closed
	e.closed = true
	e.subMu.Unlock()
	if first {
		// Durable-path submitters between WAL reservation and injection must
		// finish before the intake channel closes: their sequence numbers
		// are already assigned and the merger is waiting for them.
		e.inflight.Wait()
		close(e.imputeIn)
	}
	e.mergeWG.Wait()
	e.cancel()
	return e.Err()
}

// imputeWorker runs the parallel imputation stage: the index join plus
// profile construction and home-shard selection, all over read-only state.
// Chunks move through whole: the worker imputes every item in its chunk and
// forwards the chunk to the router in one send.
//
//terids:hotpath
func (e *Engine) imputeWorker() {
	defer e.imputeWG.Done()
	for chunk := range e.imputeIn {
		m := e.met
		var stageStart time.Time
		if m != nil {
			//lint:ignore nodeterm stage-latency instrumentation; never touches emitted bytes
			stageStart = time.Now()
		}
		for _, it := range chunk {
			if m != nil {
				qw := stageStart.Sub(it.enq)
				m.imputeWait.Observe(int64(qw))
				if it.tr != nil {
					it.tr.QueueWaitNs = int64(qw)
				}
			}
			im, bd := e.step.Impute(it.rec)
			var sw metrics.Stopwatch
			sw.Start()
			prof := e.step.Profile(im)
			it.prof.im = im
			it.prof.prof = prof
			it.prof.home = homeShard(it.rec.RID, e.cfg.Shards)
			bd.ER += sw.Lap() // profile construction is ER-phase cost in core
			e.acc.AddBreakdown(bd)
		}
		if m != nil {
			// Whole-chunk impute cost, attributed evenly across the chunk.
			//lint:ignore nodeterm stage-latency instrumentation; never touches emitted bytes
			d := time.Since(stageStart)
			per := int64(d) / int64(len(chunk))
			for _, it := range chunk {
				m.imputeTime.Observe(per)
				if it.tr != nil {
					it.tr.ImputeNs = per
				}
			}
		}
		select {
		case e.imputedOut <- chunk:
		case <-e.ctx.Done():
			return
		}
	}
}

// router is the sequential heart of the pipeline: it restores submission
// order after the parallel impute stage, advances the sliding windows,
// and fans commands out to the shards and the merger in per-chunk batches.
//
//terids:hotpath
func (e *Engine) router() {
	defer func() {
		for _, ch := range e.shardCh {
			close(ch)
		}
		close(e.hdrCh)
	}()
	// live (owned by this goroutine from here on; seeded by install) tracks
	// resident RIDs across all shards so
	// duplicates are rejected per-tuple instead of failing a shard's grid
	// insert.
	win := seqWindow[*item]{next: e.startSeq}
	// released is the router's reusable scratch run of in-order items: each
	// incoming chunk releases zero or more arrivals past the reorder
	// frontier, and the whole run goes to the shards as one batch.
	released := make([]*item, 0, 64)
	for chunk := range e.imputedOut {
		for _, it := range chunk {
			win.put(it.seq, it)
		}
		e.itemsPool.put(chunk)
		released = released[:0]
		for {
			it, ok := win.popNext()
			if !ok {
				break
			}
			released = append(released, it)
		}
		if len(released) == 0 {
			continue
		}
		if !e.routeBatch(released) {
			// Keep draining imputedOut so impute workers can exit; the
			// context is cancelled, their sends abort.
			for i := range released {
				released[i] = nil
			}
			return
		}
	}
}

// routeBatch processes a run of in-order arrivals: expiry and window/live
// bookkeeping per arrival, then ONE command per shard carrying the whole run,
// and finally the run's headers in one send. Duplicate live RIDs are rejected
// before touching window or grid state. The per-shard commands go out before
// the headers: the router finishes writing each arrival's trace fields before
// the fan-out, and the header send is the merger's happens-before edge for
// reading them.
//
//terids:hotpath
func (e *Engine) routeBatch(items []*item) bool {
	m := e.met
	var routeStart time.Time
	if m != nil {
		//lint:ignore nodeterm stage-latency instrumentation; never touches emitted bytes
		routeStart = time.Now()
	}
	k := len(e.shardCh)
	batches := e.shardScratch
	for i := range batches {
		if batches[i] == nil {
			batches[i] = e.shardItemsPool.get(len(items))
		}
	}
	hdrs := e.headersPool.get(len(items))
	for _, it := range items {
		if _, dup := e.live[it.rec.RID]; dup {
			hdr := header{seq: it.seq, rid: it.rec.RID, skip: true, it: it}
			if tr := it.tr; tr != nil {
				tr.Rejected = true
				tr.Home = -1
				hdr.tr = tr
			}
			hdrs = append(hdrs, hdr)
			continue
		}
		expired, err := e.windows.Push(it.rec)
		if err != nil {
			e.fail(err)
			e.headersPool.put(hdrs)
			return false
		}
		var rids []string
		if expired != nil {
			rids = []string{expired.RID}
			delete(e.live, expired.RID)
		}
		e.live[it.rec.RID] = struct{}{}
		home := it.prof.home
		if tr := it.tr; tr != nil {
			tr.Home = home
			// Allocated before the fan-out: each shard writes only its own
			// index (ordered by its partial send), the merger reads after all
			// partials.
			tr.ShardNs = make([]int64, k)
		}
		for i := 0; i < k; i++ {
			batches[i] = append(batches[i], shardItem{it: it, removes: rids, insert: i == home})
		}
		hdrs = append(hdrs, header{seq: it.seq, rid: it.rec.RID, expired: rids, it: it, tr: it.tr})
	}
	if m != nil {
		// Whole-run route cost, attributed evenly across the run; written
		// before the fan-out so the header send publishes it.
		//lint:ignore nodeterm stage-latency instrumentation; never touches emitted bytes
		per := int64(time.Since(routeStart)) / int64(len(items))
		for i := range hdrs {
			m.routeTime.Observe(per)
			if tr := hdrs[i].tr; tr != nil {
				tr.RouteNs = per
			}
		}
	}
	for i, ch := range e.shardCh {
		if len(batches[i]) == 0 {
			continue
		}
		select {
		case ch <- shardCmd{items: batches[i]}:
			batches[i] = nil
		case <-e.ctx.Done():
			e.headersPool.put(hdrs)
			return false
		}
	}
	select {
	case e.hdrCh <- hdrs:
	case <-e.ctx.Done():
		return false
	}
	return true
}

// ResultSet returns a point-in-time copy of the live entity set, sorted by
// pair key (same contract as core.ResultSet.Pairs).
func (e *Engine) ResultSet() []core.Pair {
	e.resultsMu.RLock()
	defer e.resultsMu.RUnlock()
	return e.results.Pairs()
}

// ResultCount returns the number of live pairs.
func (e *Engine) ResultCount() int {
	e.resultsMu.RLock()
	defer e.resultsMu.RUnlock()
	return e.results.Len()
}

// Completed returns how many arrivals have been fully processed.
func (e *Engine) Completed() int64 {
	e.resultsMu.RLock()
	defer e.resultsMu.RUnlock()
	return e.completed
}
