package cliutil

import (
	"strings"
	"testing"
	"time"
)

func valid() Params {
	return Params{Alpha: 0.5, Rho: 0.5, W: 200, Streams: 2, Shards: 4, Queue: 256, Scale: 1, Eta: 0.5, Xi: 0.3}
}

func TestValidateAccepts(t *testing.T) {
	for _, p := range []Params{
		valid(),
		{Alpha: 0, Rho: 1, W: 1, Streams: 2, Shards: 0, Queue: 1, Scale: 0.01, Eta: 1, Xi: 0},
		{Alpha: 0.999, Rho: 0.001, W: 1 << 20, Streams: 16, Shards: MaxShards, Queue: 1 << 16, Scale: 10, Eta: 0.5, Xi: 1},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", p, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"alpha high", func(p *Params) { p.Alpha = 1 }, "-alpha"},
		{"alpha negative", func(p *Params) { p.Alpha = -0.1 }, "-alpha"},
		{"rho zero", func(p *Params) { p.Rho = 0 }, "-rho"},
		{"rho high", func(p *Params) { p.Rho = 1.1 }, "-rho"},
		{"window", func(p *Params) { p.W = 0 }, "-w"},
		{"streams", func(p *Params) { p.Streams = 1 }, "-streams"},
		{"shards negative", func(p *Params) { p.Shards = -1 }, "-shards"},
		{"shards huge", func(p *Params) { p.Shards = MaxShards + 1 }, "-shards"},
		{"queue", func(p *Params) { p.Queue = 0 }, "-queue"},
		{"scale", func(p *Params) { p.Scale = 0 }, "-scale"},
		{"eta", func(p *Params) { p.Eta = 0 }, "-eta"},
		{"xi", func(p *Params) { p.Xi = 1.5 }, "-xi"},
		{"rate limit", func(p *Params) { p.RateLimit = -1 }, "-rate-limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid()
			tc.mut(&p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want mention of %s", err, tc.want)
			}
		})
	}
}

func TestValidateJoinsAllViolations(t *testing.T) {
	err := Params{Alpha: 2, Rho: 0, W: 0, Streams: 0, Queue: 0, Scale: 0, Eta: 0, Xi: -1}.Validate()
	if err == nil {
		t.Fatal("all-bad params validated")
	}
	for _, flag := range []string{"-alpha", "-rho", "-w", "-streams", "-queue", "-scale", "-eta", "-xi"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("joined error misses %s: %v", flag, err)
		}
	}
}

// TestDurabilityAccepts covers every legal flag combination: durability off,
// WAL without the background checkpointer, the full WAL+checkpointer setup,
// and a plain -restore without a WAL.
func TestDurabilityAccepts(t *testing.T) {
	for _, d := range []Durability{
		{CheckpointKeep: 1},
		{WALDir: "state", CheckpointKeep: 1},
		{WALDir: "state", CheckpointInterval: 30 * time.Second, CheckpointKeep: 2},
		{Restore: "ckpt.bin", CheckpointKeep: 1},
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", d, err)
		}
	}
}

// TestDurabilityRejects covers the conflicting and required-together cases:
// -wal-dir/-restore are mutually exclusive (the WAL directory auto-recovers
// from its own checkpoints), and -checkpoint-interval requires -wal-dir.
func TestDurabilityRejects(t *testing.T) {
	cases := []struct {
		name string
		d    Durability
		want string
	}{
		{"wal-dir and restore together", Durability{
			WALDir: "state", Restore: "ckpt.bin", CheckpointKeep: 1,
		}, "mutually exclusive"},
		{"checkpoint interval without wal dir", Durability{
			CheckpointInterval: time.Minute, CheckpointKeep: 1,
		}, "-checkpoint-interval requires"},
		{"negative interval", Durability{
			WALDir: "state", CheckpointInterval: -time.Second, CheckpointKeep: 1,
		}, "-checkpoint-interval"},
		{"keep zero", Durability{WALDir: "state"}, "-checkpoint-keep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%+v) = %v, want mention of %q", tc.d, err, tc.want)
			}
		})
	}
}

// TestDurabilityJoinsAllViolations: a maximally misconfigured invocation
// reports every problem at once.
func TestDurabilityJoinsAllViolations(t *testing.T) {
	err := Durability{WALDir: "state", Restore: "ckpt.bin", CheckpointInterval: -1}.Validate()
	if err == nil {
		t.Fatal("all-bad durability flags validated")
	}
	for _, want := range []string{"mutually exclusive", "-checkpoint-interval", "-checkpoint-keep"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error misses %q: %v", want, err)
		}
	}
}

// TestDurabilityDeltaFlags: -checkpoint-delta rides on the background
// checkpointer, so it needs a WAL directory and a non-negative count.
func TestDurabilityDeltaFlags(t *testing.T) {
	for _, d := range []Durability{
		{WALDir: "state", CheckpointKeep: 1, CheckpointDelta: 4},
		{WALDir: "state", CheckpointInterval: time.Minute, CheckpointKeep: 2, CheckpointDelta: 8},
		{CheckpointKeep: 1, CheckpointDelta: 0},
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", d, err)
		}
	}
	cases := []struct {
		name string
		d    Durability
		want string
	}{
		{"delta negative", Durability{WALDir: "state", CheckpointKeep: 1, CheckpointDelta: -1}, "-checkpoint-delta"},
		{"delta without wal dir", Durability{CheckpointKeep: 1, CheckpointDelta: 3}, "-checkpoint-delta requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%+v) = %v, want mention of %q", tc.d, err, tc.want)
			}
		})
	}
}

// TestReplayFlags is the regression test for the replay-ring startup panic:
// a non-positive -replay-buffer used to reach newResultRing and divide by
// zero on the first merged result. It must be rejected here, before any
// engine starts.
func TestReplayFlags(t *testing.T) {
	for _, r := range []Replay{
		{Buffer: 1},
		{Buffer: 4096, Depth: 1 << 20},
	} {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", r, err)
		}
	}
	cases := []struct {
		name string
		r    Replay
		want string
	}{
		{"buffer zero", Replay{Buffer: 0}, "-replay-buffer"},
		{"buffer negative", Replay{Buffer: -8, Depth: 10}, "-replay-buffer"},
		{"depth negative", Replay{Buffer: 64, Depth: -1}, "-replay-depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.r.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%+v) = %v, want mention of %q", tc.r, err, tc.want)
			}
		})
	}
}
