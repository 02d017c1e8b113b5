// Live checkpoint application: advancing a RUNNING engine to a newer
// checkpoint without tearing the object down. This is the follower
// replica's catch-up path — when the writer's checkpointer truncates the
// WAL underneath the tailer, the follower applies the delta-checkpoint
// chain onto its live engine and resumes tailing from the new watermark,
// instead of rebuilding from scratch. The engine object, its OnResult
// subscribers, metrics, and journal all survive the jump; the operator
// state is replaced through a swap (snapshot.go) at the engine's own K.
//
// AttachWAL is the other half of warm-standby takeover: promotion opens
// the writer's log (the flock guarantees the old writer is gone), replays
// the un-tailed remainder, then flips the engine onto the durable
// submission path — every later Submit reserves its slot in the WAL
// exactly as a writer-born engine would.
package engine

import (
	"fmt"

	"terids/internal/core"
	"terids/internal/snapshot"
	"terids/internal/wal"
)

// AttachWAL flips a WAL-less engine onto the durable submission path:
// every subsequent submission reserves its sequence in l before entering
// the pipeline. The log must already hold exactly the engine's history
// below its current watermark (promotion replays the remainder first), so
// the first durable reservation continues the sequence space without a
// gap. Attaching twice, or to an engine built with a WAL, is an error.
func (e *Engine) AttachWAL(l *wal.Log) error {
	if l == nil {
		return fmt.Errorf("engine: AttachWAL: nil log")
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.cfg.WAL != nil {
		return fmt.Errorf("engine: a WAL is already attached")
	}
	if next := l.Stats().NextSeq; next != e.seq.Load() {
		return fmt.Errorf("engine: WAL next seq %d does not meet engine watermark %d", next, e.seq.Load())
	}
	e.cfg.WAL = l
	return nil
}

// ApplyCheckpoint advances a running engine to checkpoint c in place — a
// swap onto c's state (see swap for the pause/ownership rules). Submissions
// block for the duration; OnResult, metrics, and the journal stay attached.
// The engine keeps its own K whatever c.Shards says: K is fixed at boot, so
// a follower booted with a new -shards runs at it from catch-up through
// promotion (placement is free — results are identical either way). The
// checkpoint must be at or ahead of the engine's watermark — a live engine
// never rewinds. Must not be called from OnResult.
//
//terids:deterministic
func (e *Engine) ApplyCheckpoint(c *snapshot.Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := core.CheckpointCompatible(e.step.Shared(), e.cfg.Core, c); err != nil {
		return err
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if c.Seq < e.seq.Load() {
		return fmt.Errorf("engine: checkpoint watermark %d is behind the engine at %d", c.Seq, e.seq.Load())
	}
	if err := e.swap(c); err != nil {
		return err
	}
	e.jr.Record("checkpoint_applied", "advanced live engine to checkpoint",
		map[string]any{"seq": c.Seq, "shards": e.cfg.Shards, "residents": len(c.Residents)})
	return nil
}
