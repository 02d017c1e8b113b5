// Follower replicas: read-path scale-out by tailing the writer's
// durability directory. A follower is a Durable handle in following mode:
// it restores a checkpoint exactly as OpenDurable does, then continuously
// tails the writer's WAL through a read-only wal.Tailer and re-runs every
// durable arrival through its own pipeline — so its merged results are
// byte-identical to the writer's, a poll interval behind. A handle that is
// still following never locks, writes or truncates anything under its
// directory.
//
// When the writer's checkpointer truncates the WAL below the follower's
// cursor (the follower fell behind, or just booted against an old
// checkpoint), the follower catches up WITHOUT a cold rebuild: it resolves
// the newest on-disk checkpoint — applying the delta chain onto the
// checkpoint state it already holds in memory when the chain connects —
// and advances its live engine to it via ApplyCheckpoint. OnResult
// subscribers, metrics, and the journal survive the jump.
//
// Promotion (warm-standby takeover) flips the same handle into writing
// mode: stop tailing, take the writer flock (refused with wal.ErrLocked
// while the old writer is alive — the kernel drops the lock on any exit,
// including SIGKILL), replay the un-tailed WAL remainder, attach the log to
// the live submission path, and start the checkpointer.
package engine

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"terids/internal/core"
	"terids/internal/wal"
)

// followPoll is the tail poll interval: each pass reads every durable
// arrival appended since the last one.
const followPoll = 25 * time.Millisecond

// errFollowing refuses a write under the directory of a handle that is
// still following.
var errFollowing = errors.New("engine: read-only follower (promote it first)")

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

// OpenFollower boots a handle in following mode over a writer's durability
// directory: restore DurableConfig.Checkpoint (the newest checkpoint on
// disk when unset), start tailing the WAL past its watermark, and keep
// applying until Close or Promote. The engine config must not carry a WAL;
// the follower adopts the writer's shard count from the checkpoints it
// applies.
func OpenFollower(sh *core.Shared, cfg Config, d DurableConfig) (*Durable, error) {
	return openFollower(sh, cfg, d, nil)
}

// openFollower is OpenFollower with a test seam: beforePass, when set, runs
// at the top of every tail pass, so a test can stall the tailer until the
// writer has truncated and force the checkpoint catch-up path.
func openFollower(sh *core.Shared, cfg Config, d DurableConfig, beforePass func()) (*Durable, error) {
	d.fill()
	if cfg.WAL != nil {
		return nil, fmt.Errorf("engine: follower config must not carry a WAL")
	}
	tailer, err := wal.OpenTail(d.Dir)
	if err != nil {
		return nil, fmt.Errorf("engine: follower: %w", err)
	}
	path, ckpt, err := bootCheckpoint(d)
	if err != nil {
		return nil, err
	}
	eng, err := NewFromSnapshot(sh, cfg, ckpt)
	if err != nil {
		return nil, err
	}
	dur := newDurable(sh, cfg, d, eng, path, ckpt)
	dur.tailer, dur.beforePass = tailer, beforePass
	// The boot state is the base incremental catch-ups connect to.
	dur.prevCkpt = ckpt
	dur.following.Store(true)
	dur.applied.Store(dur.resumeSeq)
	dur.frontier.Store(dur.resumeSeq)
	eng.jr.Record("follower_start", "follower replica tailing writer WAL",
		map[string]any{"dir": d.Dir, "from_seq": dur.resumeSeq, "checkpoint": path})
	dur.startLoop()
	return dur, nil
}

// tailPass is the following mode's background step. Pass errors are logged
// and retried: the writer may be rotating, truncating, or gone — none of
// which should kill the replica.
func (d *Durable) tailPass() {
	err := d.pass(func(from int64, fn func(wal.Entry) error) error {
		if d.beforePass != nil {
			d.beforePass()
		}
		_, err := d.tailer.Replay(from, fn)
		return err
	})
	if err != nil && !errors.Is(err, ErrClosed) {
		d.cfg.Logf("follower: tail pass: %v", err)
	}
}

// pass runs one apply iteration over read — the tailer while following, the
// sealed log during promotion: stream every durable arrival past the cursor
// through the pipeline, and fall back to a checkpoint catch-up when the WAL
// was truncated below the cursor.
//
//terids:deterministic
func (d *Durable) pass(read walReader) error {
	next, err := replay(d.sh.Schema, read, d.applied.Load(), replayBatch, d.Eng.SubmitBatch)
	d.applied.Store(next)
	if errors.Is(err, wal.ErrTruncated) {
		return d.catchUp()
	}
	if err == nil {
		d.frontier.Store(next)
		d.passes.Add(1)
	}
	return err
}

// catchUp advances the live engine to the newest on-disk checkpoint after
// the WAL was truncated below the cursor. When the checkpoint's delta
// chain connects to the state the follower already holds in memory
// (prevCkpt), only the deltas are read and applied (snapshot.ApplyDelta
// forward from the in-memory base) — catch-up cost proportional to the
// change, never a cold rebuild. A chain that does not connect falls back to
// full materialization; the engine swap is the same either way. Only states
// at or ahead of the cursor qualify: with nothing newer on disk, WAL
// retention must cover the follower on the next pass.
func (d *Durable) catchUp() error {
	applied := d.applied.Load()
	var lastErr error
	path, c, incremental, err := newestCheckpoint(CheckpointDir(d.cfg.Dir), applied, math.MaxInt64, d.prevCkpt,
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
	if err := d.Eng.ApplyCheckpoint(c); err != nil {
		return err
	}
	d.ckptMu.Lock()
	d.prevCkpt, d.lastCkptPath, d.lastCkptSeq = c, path, c.Seq
	d.ckptMu.Unlock()
	d.applied.Store(c.Seq)
	if c.Seq > d.frontier.Load() {
		d.frontier.Store(c.Seq)
	}
	d.catchups.Add(1)
	if incremental {
		d.incCatchups.Add(1)
	}
	d.Eng.jr.Record("follower_catchup", "WAL truncated below cursor; advanced to checkpoint",
		map[string]any{"seq": c.Seq, "incremental": incremental, "file": filepath.Base(path)})
	d.cfg.Logf("follower: caught up to checkpoint %s (seq %d, incremental=%v)", filepath.Base(path), c.Seq, incremental)
	return nil
}

// Following reports whether the handle is a read-only replica that has not
// been promoted.
func (d *Durable) Following() bool { return d.following.Load() }

// Lag reports how many durable writer arrivals the follower's merged
// output still trails by, as of the last tail pass.
func (d *Durable) Lag() int64 {
	lag := d.frontier.Load() - d.Eng.Completed()
	if lag < 0 {
		return 0
	}
	return lag
}

// CaughtUp reports whether the follower has completed at least one tail
// pass and holds every durable arrival it has seen — the readiness
// condition for serving reads.
func (d *Durable) CaughtUp() bool {
	return (d.passes.Load() > 0 || d.catchups.Load() > 0) && d.Lag() == 0
}

// WriterAlive reports whether a live writer currently holds the
// directory's lock.
func (d *Durable) WriterAlive() bool { return wal.WriterAlive(d.cfg.Dir) }

// FollowerStats reports follower health for /stats; ok is false for a
// handle OpenDurable opened, which never followed.
func (d *Durable) FollowerStats() (st FollowerStats, ok bool) {
	if d.tailer == nil {
		return FollowerStats{}, false
	}
	return FollowerStats{
		Dir:                 d.cfg.Dir,
		RecoveredFrom:       d.recoveredFrom,
		AppliedSeq:          d.applied.Load(),
		FrontierSeq:         d.frontier.Load(),
		LagSeq:              d.Lag(),
		Passes:              d.passes.Load(),
		Catchups:            d.catchups.Load(),
		IncrementalCatchups: d.incCatchups.Load(),
		WriterAlive:         d.WriterAlive(),
		Promoted:            !d.following.Load(),
	}, true
}

// Promote flips a following handle into the writer: stop tailing, seal at
// the WAL frontier (take the writer flock — refused with wal.ErrLocked
// while the old writer is still alive), replay the un-tailed remainder
// through the pipeline, attach the log to the live submission path, and
// start the checkpointer. Eng and its OnResult subscribers carry on
// unchanged. Idempotent: a handle that is already writing returns nil. On
// failure before the point of no return the handle keeps following.
func (d *Durable) Promote() error {
	d.modeMu.Lock()
	defer d.modeMu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if !d.following.Load() {
		return nil
	}
	d.stopLoop()
	log, err := wal.Open(d.cfg.Dir, wal.Options{
		SegmentBytes: d.cfg.SegmentBytes, QueueDepth: d.cfg.QueueDepth, NoSync: d.cfg.NoSync,
	})
	if err != nil {
		d.startLoop()
		return err
	}
	fail := func(err error) error {
		log.Close()
		d.startLoop()
		return err
	}
	// Drain the remainder: everything durable past the applied cursor runs
	// through the pipeline now, exactly as a tail pass would have, read via
	// the just-opened log (the directory is sealed: we hold the writer lock
	// and nothing else appends). A truncation race costs one extra pass — the
	// first ends in a checkpoint catch-up, the second covers the rest; a
	// cursor still short after that is refused by AttachWAL.
	for attempt := 0; attempt < 2 && d.applied.Load() < log.Stats().NextSeq; attempt++ {
		if err := d.pass(log.Replay); err != nil {
			return fail(fmt.Errorf("engine: promote: %w", err))
		}
	}
	if err := d.Eng.AttachWAL(log); err != nil {
		return fail(err)
	}
	d.ckptMu.Lock()
	// The writer descends from the follower's base, but writes a full
	// snapshot first: the writer it replaces may have pruned the base's file,
	// so no delta may chain onto it.
	d.restored, d.prevCkpt = d.prevCkpt, nil
	d.ckptMu.Unlock()
	d.Log = log
	d.resumeSeq = d.Eng.seq.Load()
	d.following.Store(false) // publishes Log to the mode's readers
	d.startLoop()
	d.Eng.jr.Record("follower_promote", "warm standby took over as writer",
		map[string]any{"dir": d.cfg.Dir, "resume_seq": d.resumeSeq, "catchups": d.catchups.Load()})
	d.cfg.Logf("follower: promoted to writer at seq %d", d.resumeSeq)
	return nil
}
