package engine

import "terids/internal/metrics"

// ShardStats is one shard worker's live counters.
type ShardStats struct {
	// Shard is the partition index.
	Shard int `json:"shard"`
	// Residents is the number of tuples currently in this partition; every
	// windowed tuple resides in exactly one.
	Residents int64 `json:"residents"`
	// Resolved counts arrivals this shard has resolved against its
	// partition.
	Resolved int64 `json:"resolved"`
	// Inserts is the monotonic count of residency insertions this shard has
	// taken; its per-interval delta is the shard's submit rate.
	Inserts int64 `json:"inserts"`
	// ERTimeNs is the shard's cumulative resolve time in nanoseconds; its
	// per-interval delta measures where resolution CPU actually goes.
	ERTimeNs int64 `json:"er_time_ns"`
}

// Stats is a point-in-time view of the engine, safe to read while the
// pipeline runs. Breakdown durations are summed across workers, so they
// measure CPU time, not wall clock. Pruning counters are summed over
// shard-local resolves. Each candidate resides in exactly one shard, so
// ProbUB, InstPair and Refined always equal core.Processor's, and with
// Core.TrackPruning on the whole PruneStats does — the single-grid Figure 4
// attribution. Without TrackPruning pairs eliminated at cell level are not
// counted, and how many those are depends on the partitioning, so
// Considered, Topic and SimUB are diagnostics of this engine's work.
type Stats struct {
	Shards int `json:"shards"`
	// ImputeWorkers is the imputation pool size: one worker per shard.
	ImputeWorkers int   `json:"impute_workers"`
	Submitted     int64 `json:"submitted"`
	Completed     int64 `json:"completed"`
	// Rejected counts arrivals dropped as duplicate live RIDs (included in
	// Completed).
	Rejected  int64          `json:"rejected"`
	LivePairs int            `json:"live_pairs"`
	Totals    metrics.Totals `json:"totals"`
	PerShard  []ShardStats   `json:"per_shard"`
	// Imbalance is the current skew ratio: the most loaded shard's residents
	// over the per-shard mean (1 = balanced, Shards = everything on one).
	Imbalance float64 `json:"imbalance"`
	// QueueLen is the current ingest queue occupancy (of QueueDepth).
	QueueLen   int `json:"queue_len"`
	QueueDepth int `json:"queue_depth"`
}

// Stats aggregates the per-stage and per-shard counters. It never blocks
// on the submission path, so it stays responsive under overload.
func (e *Engine) Stats() Stats {
	submitted := e.seq.Load()
	e.resultsMu.RLock()
	completed, rejected := e.completed, e.rejected
	e.resultsMu.RUnlock()
	e.stateMu.RLock()
	st := Stats{
		Shards:        e.cfg.Shards,
		ImputeWorkers: e.cfg.Shards,
		Submitted:     submitted,
		Completed:     completed,
		Rejected:      rejected,
		Totals:        e.acc.Snapshot(),
		Imbalance:     imbalanceOf(e.shards),
		QueueLen:      len(e.imputeIn),
		QueueDepth:    e.cfg.QueueDepth,
	}
	for _, s := range e.shards {
		st.PerShard = append(st.PerShard, ShardStats{
			Shard:     s.id,
			Residents: s.residents.Load(),
			Resolved:  s.resolved.Load(),
			Inserts:   s.inserts.Load(),
			ERTimeNs:  s.erTime.Load(),
		})
	}
	e.stateMu.RUnlock()
	st.LivePairs = e.ResultCount()
	return st
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
