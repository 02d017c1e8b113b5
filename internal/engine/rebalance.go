// Online resharding: changing K on a running engine. Placement is
// fnv32a(RID) mod K (topic.go), balanced by construction, so there is no
// skew to watch and nothing to tune — the one thing an operator can still
// ask for is a different shard count. Reshard is a swap (snapshot.go):
// barrier-checkpoint at the current watermark, re-install the captured
// state at the new K, resume — in place, on the same *Engine, with zero
// lost or duplicated results. The WAL, the background checkpointer, and
// every OnResult subscriber stay attached throughout.
//
// Correctness is inherited, not re-proven: residency is pure load placement
// (resolution broadcasts to all shards), so any K emits byte-identical
// pairs, and the reshard itself is checkpoint + restore — the exact path
// the K→K' restore property tests already pin down.
package engine

import (
	"fmt"
	"sync"
	"time"

	"terids/internal/snapshot"
)

// MaxShards bounds the shard count: beyond it the per-arrival broadcast
// fan-out dominates any parallelism win. Reshard refuses more, every -shards
// flag is checked against it, and an auto-sizing restore (Shards == 0) or a
// follower adopts no more from a checkpoint — checkpoints are CRC-checked,
// not authenticated, so a tampered Shards field must not be able to make
// recovery spawn an arbitrary number of goroutines and grids.
const MaxShards = 64

// checkpointShards is the shard count checkpoint c asks a restore to adopt,
// or 0 when it carries none within the adoption cap.
func checkpointShards(c *snapshot.Checkpoint) int {
	if c == nil || c.Shards < 1 || c.Shards > MaxShards {
		return 0
	}
	return c.Shards
}

// RebalanceStats is the resharding health block, surfaced through
// Engine.Stats and /stats.
type RebalanceStats struct {
	// Rebalances counts completed reshards.
	Rebalances int64 `json:"rebalances"`
	// LastSeq is the watermark of the newest reshard; LastDurationMS its
	// barrier→resume latency.
	LastSeq        int64   `json:"last_seq"`
	LastDurationMS float64 `json:"last_duration_ms"`
	LastError      string  `json:"last_error,omitempty"`
}

// rebState is the reshard bookkeeping, under its own lock so Stats() never
// queues behind a running reshard.
type rebState struct {
	mu       sync.Mutex
	count    int64
	lastSeq  int64
	lastTook time.Duration
	lastErr  error
}

// Imbalance is the current skew ratio: the most loaded shard's residents
// over the per-shard mean (1 = perfectly balanced, K = everything on one
// shard). An empty engine reports 1.
func (e *Engine) Imbalance() float64 {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return imbalanceOf(e.shards)
}

func imbalanceOf(shards []*shard) float64 {
	var max, total int64
	for _, s := range shards {
		r := s.residents.Load()
		total += r
		if r > max {
			max = r
		}
	}
	if total == 0 || len(shards) == 0 {
		return 1
	}
	return float64(max) * float64(len(shards)) / float64(total)
}

// Reshard changes the running engine's shard count to k: a swap (see
// snapshot.go) that re-installs the engine's own barrier checkpoint at the
// new K — all without losing or duplicating a single result. Submissions
// block for the duration; the WAL, counters, and OnResult sink carry over.
// It must not be called from OnResult (like Checkpoint, it waits for the
// merger to drain).
func (e *Engine) Reshard(k int) (err error) {
	if k < 1 || k > MaxShards {
		return fmt.Errorf("engine: reshard to %d shards, need [1, %d]", k, MaxShards)
	}
	//lint:ignore nodeterm pause-duration metric; never touches emitted bytes
	start := time.Now()
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	defer func() {
		e.reb.mu.Lock()
		e.reb.lastErr = err
		e.reb.mu.Unlock()
	}()
	imbBefore := imbalanceOf(e.shards)
	oldK := e.cfg.Shards
	e.jr.Record("rebalance_start", "online reshard: barrier checkpoint and rebuild",
		map[string]any{"k_from": oldK, "k_to": k, "imbalance": imbBefore})
	// The pause window: the engine's own state, captured at the barrier, is
	// re-installed at the new K.
	c, err := e.swap(k, nil)
	if err != nil {
		return err
	}
	//lint:ignore nodeterm pause-duration metric; never touches emitted bytes
	took := time.Since(start)
	if m := e.met; m != nil {
		m.rebalancePause.ObserveDuration(took)
	}
	e.reb.mu.Lock()
	e.reb.count++
	e.reb.lastSeq = c.Seq
	e.reb.lastTook = took
	e.reb.mu.Unlock()
	e.jr.Record("rebalance_done", "online reshard complete, pipeline resumed",
		map[string]any{
			"k_from": oldK, "k_to": k,
			"seq": c.Seq, "residents": len(c.Residents),
			"imbalance": imbBefore, "duration_ms": float64(took.Microseconds()) / 1000,
		})
	return nil
}

// Rebalancing reports whether an online reshard is in its pause window
// (submissions locked out, pipeline torn down or rebuilding). Serving
// layers surface it through /readyz.
func (e *Engine) Rebalancing() bool { return e.rebalancing.Load() }

// RebalanceStats reports the reshard counters.
func (e *Engine) RebalanceStats() RebalanceStats {
	e.reb.mu.Lock()
	defer e.reb.mu.Unlock()
	st := RebalanceStats{
		Rebalances:     e.reb.count,
		LastSeq:        e.reb.lastSeq,
		LastDurationMS: float64(e.reb.lastTook.Microseconds()) / 1000,
	}
	if e.reb.lastErr != nil {
		st.LastError = e.reb.lastErr.Error()
	}
	return st
}
