package engine

import "terids/internal/snapshot"

// Placement is one rule: a resident lives in grid partition
// fnv32a(RID) mod K. Resolution broadcasts every query to all K shards and
// expiry is broadcast too, so which shard hosts a tuple is pure load
// placement — the emitted pairs never depend on it — and the only thing the
// rule has to get right is balance. A hash of the record's own identifier
// spreads residents uniformly whatever the stream's topic mix, needs nothing
// but the record (so the impute workers and the restore path agree without
// sharing state), and cannot alias with periodic arrival patterns.

// fnv32a is a tiny inline FNV-1a, deterministic across runs and platforms.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// homeShard is the grid partition, of k, that hosts the resident with this
// RID.
func homeShard(rid string, k int) int { return int(fnv32a(rid) % uint32(k)) }

// MaxShards bounds the shard count: beyond it the per-arrival broadcast
// fan-out dominates any parallelism win. Every -shards flag is checked
// against it, and an auto-sizing restore (Shards == 0) adopts no more from a
// checkpoint — checkpoints are CRC-checked, not authenticated, so a tampered
// Shards field must not be able to make recovery spawn an arbitrary number
// of goroutines and grids.
const MaxShards = 64

// checkpointShards is the shard count checkpoint c asks a restore to adopt,
// or 0 when it carries none within the adoption cap.
func checkpointShards(c *snapshot.Checkpoint) int {
	if c == nil || c.Shards < 1 || c.Shards > MaxShards {
		return 0
	}
	return c.Shards
}
