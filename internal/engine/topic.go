package engine

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
