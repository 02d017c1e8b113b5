package main

import (
	"fmt"
	"time"

	"terids/internal/obs"
)

// printStageLatencies prints the per-stage latency quantiles the engine
// published during the run — the wall-clock attribution the summed cost
// breakdown cannot give (it measures CPU time across workers).
func printStageLatencies() {
	reg := obs.Default()
	stages := []struct{ label, metric string }{
		{"impute wait", "terids_impute_queue_wait_seconds"},
		{"impute", "terids_impute_seconds"},
		{"route", "terids_route_seconds"},
		{"merge hold", "terids_merge_hold_seconds"},
		{"wal wait", "terids_wal_submit_wait_seconds"},
	}
	fmt.Printf("stage latency (p50/p95/p99):")
	for _, s := range stages {
		h := reg.Histogram(s.metric, "", nil)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf(" %s %v/%v/%v", s.label,
			quantDur(h, 0.50), quantDur(h, 0.95), quantDur(h, 0.99))
	}
	fmt.Println()
}

func quantDur(h *obs.Histogram, q float64) time.Duration {
	return time.Duration(h.Quantile(q)).Round(time.Microsecond)
}
