package main

import (
	"fmt"
	"sort"
)

// endToEndUnits and perLayerUnits are the metric names this program prints,
// with their units. BENCHMARK.json lists the same names (a test holds the
// two together); a run fails rather than print a name that is not here or
// leave one out.
var endToEndUnits = map[string]string{
	"throughput_tps":     "1/s",
	"latency_p50_ms":     "ms",
	"cpu_us_per_arrival": "us",
	"setup_s":            "s",
	"recovery_s":         "s",
}

var perLayerUnits = map[string]string{
	"tokens.jaccard_ns": "ns",

	"cddindex.applicable_us":  "us",
	"cddindex.verified_ratio": "ratio",

	"drindex.matching_us":        "us",
	"drindex.match_ratio":        "ratio",
	"drindex.nodes_pruned_ratio": "ratio",

	"impute.distribution_us":     "us",
	"impute.candidates_per_attr": "count",

	"prune.profile_us":             "us",
	"prune.refine_us":              "us",
	"prune.refine_pairs_checked":   "count",
	"prune.cascade_survivor_ratio": "ratio",

	"grid.candidates_us":      "us",
	"grid.cells_pruned_ratio": "ratio",
	"grid.emit_ratio":         "ratio",
	"grid.maintain_us":        "us",

	"stream.push_us": "us",

	"core.impute_us":          "us",
	"core.resolve_us":         "us",
	"core.processor_tps":      "1/s",
	"core.allocs_per_arrival": "count",
	"core.bytes_per_arrival":  "B",
	"core.reconcile_ratio":    "ratio",
	"trace.overhead_ratio":    "ratio",

	"engine.tps":                     "1/s",
	"engine.speedup_vs_processor":    "ratio",
	"engine.submit_wait_us":          "us",
	"engine.submit_to_result_p50_us": "us",
	"engine.shard_imbalance":         "ratio",
	"engine.checkpoint_barrier_ms":   "ms",
	"engine.recovery_replay_tps":     "1/s",

	"wal.commit_us_b8":    "us",
	"wal.commit_us_b64":   "us",
	"wal.bytes_per_entry": "B",
	"wal.replay_tps":      "1/s",

	"snapshot.encode_ms":         "ms",
	"snapshot.decode_ms":         "ms",
	"snapshot.bytes":             "B",
	"snapshot.delta_bytes_ratio": "ratio",

	"offline.pivot_s":  "s",
	"offline.detect_s": "s",
	"offline.index_s":  "s",

	"serve.latency_p99_ms":          "ms",
	"serve.ingest_ack_p50_ms":       "ms",
	"serve.overhead_us_per_arrival": "us",
	"serve.allocs_per_arrival":      "count",
	"serve.gc_pause_ms":             "ms",
	"serve.peak_rss_mb":             "MiB",
	"serve.sched_lag_p99_ms":        "ms",
}

// metricSet collects one run's values against a units table.
type metricSet struct {
	units  map[string]string
	values map[string]metric
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, values: make(map[string]metric, len(units))}
}

// set records a value; an unknown name is a programming error.
func (s *metricSet) set(name string, v float64) {
	unit, ok := s.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the units table")
	}
	s.values[name] = metric{Value: v, Unit: unit}
}

// complete returns the values once every name in the table has one.
func (s *metricSet) complete() (map[string]metric, error) {
	var missing []string
	for name := range s.units {
		if _, ok := s.values[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("no value measured for %v", missing)
	}
	return s.values, nil
}
