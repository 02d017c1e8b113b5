// Follower replicas: read-path scale-out by tailing the writer's
// durability directory. A follower restores the newest checkpoint, then
// continuously tails the writer's WAL through a read-only wal.Tailer and
// re-runs every durable arrival through its own pipeline — so its merged
// results are byte-identical to the writer's, a poll interval behind.
//
// When the writer's checkpointer truncates the WAL below the follower's
// cursor (the follower fell behind, or just booted against an old
// checkpoint), the follower catches up WITHOUT a cold rebuild: it resolves
// the newest on-disk checkpoint — applying the delta chain onto the
// checkpoint state it already holds in memory when the chain connects —
// and advances its live engine to it via ApplyCheckpoint. OnResult
// subscribers, metrics, and the journal survive the jump.
//
// Promotion (warm-standby takeover) turns the follower into the writer:
// stop tailing, take the writer flock (refused with wal.ErrLocked while
// the old writer is alive — the kernel drops the lock on any exit,
// including SIGKILL), replay the un-tailed WAL remainder, attach the log
// to the live submission path, and return a fully-functional Durable
// handle with its checkpointer running.
package engine

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"terids/internal/core"
	"terids/internal/snapshot"
	"terids/internal/wal"
)

// FollowerConfig tunes a follower replica.
type FollowerConfig struct {
	// Dir is the writer's durability directory. It must already exist: a
	// follower never creates or mutates the directory it tails.
	Dir string
	// Poll is the tail poll interval (default 25ms). Each pass reads every
	// durable arrival appended since the last one.
	Poll time.Duration
	// Durable configures the checkpointer the follower starts when it is
	// promoted to writer (Dir is overridden with the directory above).
	Durable DurableConfig
	// Logf, when set, receives tail-loop progress and errors.
	Logf func(format string, args ...any)

	// beforePass, when set, is called at the top of every tail pass — a
	// test hook to stall the tailer until the writer has truncated, forcing
	// the checkpoint catch-up path.
	beforePass func()
}

func (fc *FollowerConfig) fill() {
	if fc.Poll <= 0 {
		fc.Poll = 25 * time.Millisecond
	}
	if fc.Logf == nil {
		fc.Logf = func(string, ...any) {}
	}
}

// FollowerStats is the /stats health block for a follower replica.
type FollowerStats struct {
	Dir string `json:"dir"`
	// RecoveredFrom is the checkpoint file the follower booted from.
	RecoveredFrom string `json:"recovered_from,omitempty"`
	// AppliedSeq is the next WAL sequence the follower will request — every
	// arrival below it has been applied. FrontierSeq is the writer's durable
	// frontier as of the last pass; LagSeq is the gap still unapplied.
	AppliedSeq  int64 `json:"applied_seq"`
	FrontierSeq int64 `json:"frontier_seq"`
	LagSeq      int64 `json:"lag_seq"`
	// Passes counts completed tail passes; Catchups counts checkpoint
	// catch-ups (WAL truncated below the cursor); IncrementalCatchups the
	// subset that applied a delta chain onto the in-memory base instead of
	// materializing from a full snapshot.
	Passes              int64 `json:"passes"`
	Catchups            int64 `json:"catchups"`
	IncrementalCatchups int64 `json:"incremental_catchups"`
	// WriterAlive reports whether a live writer currently holds the
	// directory's flock. Promoted is set once this replica took over.
	WriterAlive bool `json:"writer_alive"`
	Promoted    bool `json:"promoted"`
}

// Follower is a live read-only replica over a writer's durability
// directory.
type Follower struct {
	// Eng is the replica engine; reads (results, stats, deep state) go
	// through it as usual. Submissions are refused by the serving layer
	// until promotion.
	Eng *Engine

	cfg    FollowerConfig
	sh     *core.Shared
	engCfg Config

	tailer        *wal.Tailer
	recoveredFrom string

	applied     atomic.Int64 // next sequence to request from the tailer
	frontier    atomic.Int64 // durable frontier as of the last pass
	passes      atomic.Int64
	catchups    atomic.Int64
	incCatchups atomic.Int64

	// base is the in-memory image of the last checkpoint state this
	// follower applied — the anchor incremental delta chains connect to —
	// and basePath the file it came from. Both are owned by the tail loop
	// (and by Promote after the loop stops).
	base     *snapshot.Checkpoint
	basePath string

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	promoteMu sync.Mutex
	promoted  *Durable
}

// OpenFollower boots a follower replica over a writer's durability
// directory: restore the newest checkpoint (if any), start tailing the WAL
// past its watermark, and keep applying until Close or Promote. The engine
// config must not carry a WAL; the follower adopts the writer's shard count
// from the checkpoints it applies.
func OpenFollower(sh *core.Shared, cfg Config, fc FollowerConfig) (*Follower, error) {
	fc.fill()
	if cfg.WAL != nil {
		return nil, fmt.Errorf("engine: follower config must not carry a WAL")
	}
	tailer, err := wal.OpenTail(fc.Dir)
	if err != nil {
		return nil, fmt.Errorf("engine: follower: %w", err)
	}
	path, ckpt, err := LatestCheckpoint(fc.Dir)
	if err != nil {
		return nil, err
	}
	eng, err := NewFromSnapshot(sh, cfg, ckpt)
	if err != nil {
		return nil, err
	}

	f := &Follower{
		Eng: eng, cfg: fc, sh: sh, engCfg: cfg,
		tailer: tailer, recoveredFrom: path, base: ckpt, basePath: path,
		stop: make(chan struct{}),
	}
	f.applied.Store(eng.seq.Load())
	f.frontier.Store(eng.seq.Load())
	eng.jr.Record("follower_start", "follower replica tailing writer WAL",
		map[string]any{"dir": fc.Dir, "from_seq": f.applied.Load(), "checkpoint": path})
	f.wg.Add(1)
	go f.tailLoop()
	return f, nil
}

// tailLoop polls the WAL until Close or Promote stops it. Pass errors are
// logged and retried: the writer may be rotating, truncating, or gone —
// none of which should kill the replica.
func (f *Follower) tailLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(f.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		if err := f.pass(f.tail); err != nil {
			if errors.Is(err, ErrClosed) {
				return
			}
			f.cfg.Logf("follower: tail pass: %v", err)
		}
	}
}

// tail is the follower's steady-state WAL reader: one read-only scan of the
// writer's segments past the cursor (see pass).
func (f *Follower) tail(from int64, fn func(wal.Entry) error) error {
	if f.cfg.beforePass != nil {
		f.cfg.beforePass()
	}
	_, err := f.tailer.Replay(from, fn)
	return err
}

// pass runs one apply iteration over read — the tailer while following, the
// sealed log during promotion: stream every durable arrival past the cursor
// through the pipeline, and fall back to a checkpoint catch-up when the WAL
// was truncated below the cursor.
//
//terids:deterministic
func (f *Follower) pass(read walReader) error {
	next, err := replay(f.sh.Schema, read, f.applied.Load(), replayBatch, f.Eng.SubmitBatch)
	f.applied.Store(next)
	if errors.Is(err, wal.ErrTruncated) {
		return f.catchUp()
	}
	if err == nil {
		f.frontier.Store(next)
		f.passes.Add(1)
	}
	return err
}

// catchUp advances the live engine to the newest on-disk checkpoint after
// the WAL was truncated below the cursor. When the checkpoint's delta
// chain connects to the state the follower already holds in memory, only
// the deltas are read and applied (snapshot.ApplyDelta forward from the
// in-memory base) — catch-up cost proportional to the change, never a
// cold rebuild. A chain that does not connect falls back to full
// materialization; the engine swap is the same either way. Only states at
// or ahead of the cursor qualify: with nothing newer on disk, WAL retention
// must cover the follower on the next pass.
func (f *Follower) catchUp() error {
	applied := f.applied.Load()
	var lastErr error
	path, c, incremental, err := newestCheckpoint(CheckpointDir(f.cfg.Dir), applied, math.MaxInt64, f.base,
		func(_ ckptFile, err error) { lastErr = err })
	if err != nil {
		return err
	}
	if c == nil {
		if lastErr != nil {
			return fmt.Errorf("engine: follower catch-up: %w", lastErr)
		}
		return fmt.Errorf("engine: follower catch-up: wal truncated below seq %d and no newer checkpoint found", applied)
	}
	if err := f.Eng.ApplyCheckpoint(c); err != nil {
		return err
	}
	f.base, f.basePath = c, path
	f.applied.Store(c.Seq)
	if c.Seq > f.frontier.Load() {
		f.frontier.Store(c.Seq)
	}
	f.catchups.Add(1)
	if incremental {
		f.incCatchups.Add(1)
	}
	f.Eng.jr.Record("follower_catchup", "WAL truncated below cursor; advanced to checkpoint",
		map[string]any{"seq": c.Seq, "incremental": incremental, "file": filepath.Base(path)})
	f.cfg.Logf("follower: caught up to checkpoint %s (seq %d, incremental=%v)", filepath.Base(path), c.Seq, incremental)
	return nil
}

// Lag reports how many durable writer arrivals the follower's merged
// output still trails by, as of the last tail pass.
func (f *Follower) Lag() int64 {
	lag := f.frontier.Load() - f.Eng.Completed()
	if lag < 0 {
		return 0
	}
	return lag
}

// CaughtUp reports whether the follower has completed at least one tail
// pass and holds every durable arrival it has seen — the readiness
// condition for serving reads.
func (f *Follower) CaughtUp() bool {
	return (f.passes.Load() > 0 || f.catchups.Load() > 0) && f.Lag() == 0
}

// WriterAlive reports whether a live writer currently holds the tailed
// directory's lock.
func (f *Follower) WriterAlive() bool { return wal.WriterAlive(f.cfg.Dir) }

// Stats reports follower health for /stats.
func (f *Follower) Stats() FollowerStats {
	f.promoteMu.Lock()
	promoted := f.promoted != nil
	f.promoteMu.Unlock()
	return FollowerStats{
		Dir:                 f.cfg.Dir,
		RecoveredFrom:       f.recoveredFrom,
		AppliedSeq:          f.applied.Load(),
		FrontierSeq:         f.frontier.Load(),
		LagSeq:              f.Lag(),
		Passes:              f.passes.Load(),
		Catchups:            f.catchups.Load(),
		IncrementalCatchups: f.incCatchups.Load(),
		WriterAlive:         f.WriterAlive(),
		Promoted:            promoted,
	}
}

// Promote turns the follower into the writer: stop tailing, seal at the
// WAL frontier (take the writer flock — refused with wal.ErrLocked while
// the old writer is still alive), replay the un-tailed remainder through
// the pipeline, attach the log to the live submission path, and return a
// Durable handle with the background checkpointer running. Idempotent:
// a second call returns the same handle. On failure before the point of
// no return the tail loop is restarted and the follower keeps following.
func (f *Follower) Promote() (*Durable, error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.promoted != nil {
		return f.promoted, nil
	}
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()

	dcfg := f.cfg.Durable
	dcfg.Dir = f.cfg.Dir
	dcfg.fill()
	log, err := wal.Open(f.cfg.Dir, wal.Options{
		SegmentBytes: dcfg.SegmentBytes, QueueDepth: dcfg.QueueDepth, NoSync: dcfg.NoSync,
	})
	if err != nil {
		f.resumeTailing()
		return nil, err
	}
	fail := func(err error) (*Durable, error) {
		log.Close()
		f.resumeTailing()
		return nil, err
	}
	// Drain the remainder: everything durable past the applied cursor runs
	// through the pipeline now, exactly as a tail pass would have, read via
	// the just-opened log (the directory is sealed: we hold the writer lock
	// and nothing else appends). A truncation race costs one extra pass — the
	// first ends in a checkpoint catch-up, the second covers the rest; a
	// cursor still short after that is refused by AttachWAL.
	for attempt := 0; attempt < 2 && f.applied.Load() < log.Stats().NextSeq; attempt++ {
		if err := f.pass(log.Replay); err != nil {
			return fail(fmt.Errorf("engine: promote: %w", err))
		}
	}
	if err := f.Eng.AttachWAL(log); err != nil {
		return fail(err)
	}
	d := newDurable(f.sh, f.engCfg, dcfg, f.Eng, log, f.recoveredFrom, f.basePath, f.base, 0)
	f.Eng.jr.Record("follower_promote", "warm standby took over as writer",
		map[string]any{"dir": f.cfg.Dir, "resume_seq": d.resumeSeq, "catchups": f.catchups.Load()})
	f.cfg.Logf("follower: promoted to writer at seq %d", d.resumeSeq)
	f.promoted = d
	return d, nil
}

// resumeTailing restarts the tail loop after a failed promotion.
func (f *Follower) resumeTailing() {
	f.stop = make(chan struct{})
	f.stopOnce = sync.Once{}
	f.wg.Add(1)
	go f.tailLoop()
}

// Close stops the tail loop and the engine. After a successful Promote the
// engine and log belong to the returned Durable handle; Close then only
// stops what the follower still owns.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	f.promoteMu.Lock()
	promoted := f.promoted != nil
	f.promoteMu.Unlock()
	if promoted {
		return nil
	}
	return f.Eng.Close()
}
