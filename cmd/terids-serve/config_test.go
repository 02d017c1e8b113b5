package main

import (
	"strings"
	"testing"
)

// TestParseConfig is the startup validation contract: every rejected value
// fails parseConfig — before any data is generated — with its flag named in
// the error, and every accepted combination parses. ρ = 1 (γ = d) is
// rejected here because the operator rejects it: core.Config.Validate checks
// α, ρ, -w and -streams, so serve never restates their ranges. Rows are
// grouped by the flags they exercise.
func TestParseConfig(t *testing.T) {
	type row struct {
		name string
		args string
		want []string // substrings of the error; none = accepted
	}
	groups := []struct {
		name string
		rows []row
	}{
		{"validate accepts", []row{
			{"defaults", "", nil},
			{"accept lowest", "-alpha 0 -rho 0.01 -w 1 -streams 2 -shards 0 -queue 1 -scale 0.01 -eta 1", nil},
			{"accept highest", "-alpha 0.999 -rho 0.999 -w 1048576 -streams 16 -shards 64 -queue 65536 -scale 10 -eta 0.5", nil},
		}},
		{"validate rejects", []row{
			{"alpha high", "-alpha 1", []string{"-alpha 1 ", "core: alpha"}},
			{"alpha negative", "-alpha -0.1", []string{"-alpha -0.1 ", "core: alpha"}},
			{"rho zero", "-rho 0", []string{"-rho 0 ", "core: gamma"}},
			{"rho one", "-rho 1", []string{"-rho 1 ", "core: gamma"}},
			{"rho high", "-rho 1.1", []string{"-rho 1.1 ", "core: gamma"}},
			{"window", "-w 0", []string{"-w 0 ", "core: window"}},
			{"streams", "-streams 1", []string{"-streams 1", "core: need >= 2 streams"}},
			{"shards negative", "-shards -1", []string{"-shards -1"}},
			{"shards huge", "-shards 65", []string{"-shards 65"}},
			{"queue", "-queue 0", []string{"-queue 0"}},
			{"scale", "-scale 0", []string{"-scale 0"}},
			{"eta", "-eta 0", []string{"-eta 0"}},
			{"rate limit", "-rate-limit -1", []string{"-rate-limit -1"}},
			{"unknown dataset", "-dataset Nope", []string{"-dataset"}},
			{"joins all violations", "-alpha 2 -queue 0 -scale 0 -eta 0 -replay-buffer 0",
				[]string{"-alpha 2 ", "-queue", "-scale", "-eta", "-replay-buffer"}},
		}},
		{"durability accepts", []row{
			{"accept wal dir", "-wal-dir state", nil},
			{"accept wal dir with checkpointer", "-wal-dir state -checkpoint-interval 30s -checkpoint-keep 2", nil},
			{"accept restore", "-restore ckpt.bin", nil},
			{"accept follower", "-follow state -checkpoint-interval 1m -checkpoint-delta 4 -promote-on-writer-loss 5s", nil},
		}},
		{"durability rejects", []row{
			{"wal-dir and restore together", "-wal-dir state -restore ckpt.bin", []string{"-restore and -wal-dir are mutually exclusive"}},
			{"follow and wal-dir together", "-follow a -wal-dir b", []string{"-follow and -wal-dir are mutually exclusive"}},
			{"follow and restore together", "-follow a -restore ckpt.bin", []string{"-follow and -restore are mutually exclusive"}},
			{"checkpoint interval without wal dir", "-checkpoint-interval 1m", []string{"-checkpoint-interval requires"}},
			{"negative interval", "-wal-dir state -checkpoint-interval -1s", []string{"-checkpoint-interval -1s"}},
			{"keep zero", "-wal-dir state -checkpoint-keep 0", []string{"-checkpoint-keep 0"}},
			{"durability joins all violations", "-wal-dir state -restore ckpt.bin -checkpoint-interval -1ns -checkpoint-keep 0",
				[]string{"mutually exclusive", "-checkpoint-interval", "-checkpoint-keep"}},
			{"promote negative", "-follow a -promote-on-writer-loss -1s", []string{"-promote-on-writer-loss -1s"}},
			{"promote without follow", "-promote-on-writer-loss 5s", []string{"-promote-on-writer-loss requires -follow"}},
		}},
		{"durability delta flags", []row{
			{"accept deltas", "-wal-dir state -checkpoint-interval 1m -checkpoint-keep 2 -checkpoint-delta 8", nil},
			{"delta negative", "-wal-dir state -checkpoint-delta -1", []string{"-checkpoint-delta -1"}},
			{"delta without wal dir", "-checkpoint-delta 3", []string{"-checkpoint-delta requires"}},
		}},
		{"replay flags", []row{
			{"accept replay bounds", "-replay-buffer 1 -replay-depth 1048576", nil},
			{"buffer zero", "-replay-buffer 0", []string{"-replay-buffer 0"}},
			{"buffer negative", "-replay-buffer -8 -replay-depth 10", []string{"-replay-buffer -8"}},
			{"depth negative", "-replay-depth -1", []string{"-replay-depth -1"}},
		}},
		{"ingest and observability", []row{
			{"accept slo", "-slo ingest-p99:terids_impute_seconds:p99<250ms", nil},
			{"ingest batch", "-ingest-batch 0", []string{"-ingest-batch 0"}},
			{"trace sample", "-trace-sample -1", []string{"-trace-sample -1"}},
			{"debug addr collides", "-addr :9000 -debug-addr :9000", []string{"-debug-addr :9000 collides"}},
			{"bad slo", "-slo nonsense", []string{"-slo"}},
			{"slo windows", "-slo ingest-p99:terids_impute_seconds:p99<250ms -slo-fast 1h -slo-slow 1m", []string{"-slo-slow"}},
		}},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			for _, tc := range g.rows {
				t.Run(tc.name, func(t *testing.T) {
					_, err := parseConfig(strings.Fields(tc.args))
					if len(tc.want) == 0 {
						if err != nil {
							t.Fatalf("parseConfig(%q) = %v, want accepted", tc.args, err)
						}
						return
					}
					if err == nil {
						t.Fatalf("parseConfig(%q) accepted, want an error naming %q", tc.args, tc.want)
					}
					for _, want := range tc.want {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("parseConfig(%q) = %v, want mention of %q", tc.args, err, want)
						}
					}
				})
			}
		})
	}
}
