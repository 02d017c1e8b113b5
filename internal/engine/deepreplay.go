// Deep replay: regenerating historical merged results from the durable
// state, for cursors that have fallen behind every in-memory buffer.
//
// The serving layer keeps only a bounded ring of recent results, but the
// snapshot + WAL on disk determine every result ever emitted: restore the
// newest retained checkpoint at-or-below the requested sequence into a
// throwaway engine, re-run the logged arrivals through the normal pipeline,
// and the regenerated results — pair identities, order, probabilities,
// rejections, expirations — are byte-identical to the originals. Reach is
// bounded by what pruning retained: the oldest checkpoint state whose WAL
// suffix survives (or sequence zero while the WAL has never been truncated).
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// ErrNoReplayCoverage reports a deep-replay cursor below everything the
// retained checkpoints + WAL can regenerate — the only case left for an
// HTTP 410.
var ErrNoReplayCoverage = errors.New("engine: sequence predates retained checkpoint/WAL coverage")

// ErrReplayDepthExceeded reports a deep replay that would regenerate more
// arrivals than the configured bound allows.
var ErrReplayDepthExceeded = errors.New("engine: deep replay depth exceeded")

// errReplayStopped is the internal sentinel an emit=false unwinds with.
var errReplayStopped = errors.New("engine: deep replay stopped by caller")

// walView is the WAL as deep replay reads it in the handle's mode: the log
// up to its durable frontier while writing, the tailer up to the last pass's
// frontier while following. Results are a function of the arrival sequence
// alone, so a follower regenerates exactly what the writer would. first is
// the oldest sequence the WAL retains.
func (d *Durable) walView() (read walReader, first int64, frontier func() int64, err error) {
	if d.following.Load() {
		first, err = d.tailer.FirstSeq()
		return func(from int64, fn func(wal.Entry) error) error {
			_, err := d.tailer.Replay(from, fn)
			return err
		}, first, d.frontier.Load, err
	}
	return d.Log.Replay, d.Log.Stats().FirstSeq, func() int64 { return d.Log.Stats().DurableSeq }, nil
}

// DeepReach returns the oldest arrival sequence deep replay can regenerate
// results from: zero while the WAL has never been truncated (a throwaway
// engine replays from genesis), otherwise the oldest retained checkpoint
// state whose WAL suffix is fully retained. ok is false when no retained
// state has WAL coverage — deep replay is then impossible.
func (d *Durable) DeepReach() (int64, bool) {
	_, walFirst, _, err := d.walView()
	if err != nil {
		return 0, false
	}
	if walFirst == 0 {
		return 0, true
	}
	files, _, err := listCheckpointFiles(CheckpointDir(d.cfg.Dir))
	if err != nil {
		return 0, false
	}
	reach, ok := int64(0), false
	for _, f := range files { // newest first — the last qualifying is oldest
		if f.seq >= walFirst {
			reach, ok = f.seq, true
		}
	}
	return reach, ok
}

// replayBase picks the newest checkpoint state at-or-below from that the
// retained WAL (from walFirst on) can replay forward, materializing delta
// chains; unreadable states fall back to older ones. A nil checkpoint with
// nil error means genesis: the WAL still reaches sequence zero and a fresh
// engine replays from scratch.
func (d *Durable) replayBase(from, walFirst int64) (*snapshot.Checkpoint, error) {
	_, c, _, err := newestCheckpoint(CheckpointDir(d.cfg.Dir), walFirst, from, nil, func(f ckptFile, err error) {
		d.cfg.Logf("deep replay: skipping unreadable checkpoint %s: %v", f.name, err)
	})
	if err != nil || c != nil || walFirst == 0 {
		return c, err
	}
	return nil, fmt.Errorf("%w: no retained checkpoint at or below seq %d with WAL coverage (wal starts at %d)",
		ErrNoReplayCoverage, from, walFirst)
}

// DeepReplay regenerates the merged result stream for sequences >= from, in
// either mode: the newest retained checkpoint at-or-below from is restored
// into a throwaway engine and the WAL arrivals past its watermark re-run
// through the normal pipeline. emit receives every regenerated Result with
// Seq >= from, in sequence order, byte-identical to the original emission;
// returning false stops the replay early (results already in flight may
// still be produced but are no longer delivered). upTo > 0 tells the replay
// where the caller intends to stop consuming (e.g. the live ring's tail it
// will splice into); it only informs the cost gate — emission is still
// bounded by emit, not upTo. limit > 0 bounds how many arrivals the replay
// may re-run to reach that point (ErrReplayDepthExceeded when the gap is
// wider). The replay runs against a live WAL: arrivals appended while it
// runs are picked up until emit stops it or the durable frontier is reached.
//
//terids:deterministic
func (d *Durable) DeepReplay(ctx context.Context, from, upTo, limit int64, emit func(Result) bool) error {
	if from < 0 {
		from = 0
	}
	read, walFirst, frontier, err := d.walView()
	if err != nil {
		return err
	}
	ckpt, err := d.replayBase(from, walFirst)
	if err != nil {
		return err
	}
	base := int64(0)
	if ckpt != nil {
		base = ckpt.Seq
	}
	if limit > 0 {
		// The replay re-runs [base, target): to the caller's splice point
		// when it has one, to the durable frontier otherwise.
		target := frontier()
		if upTo > 0 && upTo < target {
			target = upTo
		}
		if span := target - base; span > limit {
			return fmt.Errorf("%w: regenerating from seq %d would re-run %d arrivals, limit is %d",
				ErrReplayDepthExceeded, base, span, limit)
		}
	}

	cfg := d.engCfg
	cfg.WAL = nil
	// The throwaway engine regenerates history; letting it publish stage
	// metrics or traces would pollute the live distributions.
	cfg.ObsOff = true
	cfg.TraceSample = 0
	//lint:ignore nodeterm replay duration metric; never touches emitted bytes
	replayStart := time.Now()
	var stop atomic.Bool
	cfg.OnResult = func(res Result) {
		if stop.Load() || res.Seq < from {
			return
		}
		if !emit(res) {
			stop.Store(true)
		}
	}
	eng, err := NewFromSnapshot(d.sh, cfg, ckpt)
	if err != nil {
		return err
	}

	submit := func(recs []*tuple.Record) error {
		if stop.Load() {
			return errReplayStopped
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return eng.SubmitBatch(recs)
	}
	// emit usually stops the replay at the live ring's splice point, and what
	// was submitted past it is wasted work drained on Close; stop and ctx are
	// honoured between batches, so the batch is a quarter of recovery's.
	for cursor := base; !stop.Load() && ctx.Err() == nil && cursor < frontier(); {
		cursor, err = replay(d.sh.Schema, read, cursor, replayBatch/4, submit)
		if err != nil && !errors.Is(err, errReplayStopped) { // stopped: the loop condition ends it
			eng.Close()
			if errors.Is(err, wal.ErrTruncated) {
				// The checkpointer truncated the range out from under the
				// replay: coverage is gone, which is a 410 to the caller,
				// not a server error.
				return fmt.Errorf("%w: %v", ErrNoReplayCoverage, err)
			}
			return fmt.Errorf("engine: deep replay: %w", err)
		}
	}
	// Drain: results still in flight fire through the guarded OnResult.
	if err := eng.Close(); err != nil {
		return fmt.Errorf("engine: deep replay drain: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	d.deepReplays.Add(1)
	//lint:ignore nodeterm replay duration metric; never touches emitted bytes
	took := time.Since(replayStart)
	if m := d.met; m != nil {
		m.deepReplay.ObserveDuration(took)
	}
	d.Eng.jr.Record("deep_replay", "regenerated historical results from checkpoint + WAL",
		map[string]any{
			"from": from, "base": base,
			"duration_ms": float64(took.Microseconds()) / 1000,
		})
	return nil
}
