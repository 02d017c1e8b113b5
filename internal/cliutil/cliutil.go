// Package cliutil holds the flag validation shared by the terids command
// line tools, so the parameter ranges (and their error messages) stay
// identical across cmd/terids and cmd/terids-serve instead of drifting as
// per-command copies.
package cliutil

import (
	"errors"
	"fmt"
	"time"
)

// MaxShards bounds the -shards flag: beyond this the per-arrival broadcast
// fan-out dominates any parallelism win.
const MaxShards = 64

// Params are the command-line parameters common to the terids CLIs. Every
// field is validated; commands without a given flag pass that field's
// stated neutral value.
type Params struct {
	// Alpha is the probabilistic threshold α ∈ [0, 1).
	Alpha float64
	// Rho is the similarity ratio ρ ∈ (0, 1] (γ = ρ·d).
	Rho float64
	// W is the sliding window size, ≥ 1.
	W int
	// Streams is the number of incoming streams, ≥ 2.
	Streams int
	// Shards is the ER-grid shard count: 0 (auto-size) or [1, MaxShards].
	Shards int
	// Queue is the per-stage bounded queue depth, ≥ 1 (commands without a
	// -queue flag pass 1).
	Queue int
	// Scale is the dataset scale factor, > 0.
	Scale float64
	// Eta is the repository size ratio η ∈ (0, 1].
	Eta float64
	// Xi is the missing rate ξ ∈ [0, 1].
	Xi float64
	// RateLimit is the per-stream ingest rate limit in tuples/sec, ≥ 0
	// (0 disables; commands without a -rate-limit flag pass 0).
	RateLimit float64
}

// Validate checks every parameter range, joining all violations into one
// error so a misconfigured invocation reports everything at once.
func (p Params) Validate() error {
	var errs []error
	if p.Alpha < 0 || p.Alpha >= 1 {
		errs = append(errs, fmt.Errorf("-alpha %v outside [0, 1)", p.Alpha))
	}
	if p.Rho <= 0 || p.Rho > 1 {
		errs = append(errs, fmt.Errorf("-rho %v outside (0, 1]", p.Rho))
	}
	if p.W < 1 {
		errs = append(errs, fmt.Errorf("-w %d, need >= 1", p.W))
	}
	if p.Streams < 2 {
		errs = append(errs, fmt.Errorf("-streams %d, need >= 2", p.Streams))
	}
	if p.Shards < 0 || p.Shards > MaxShards {
		errs = append(errs, fmt.Errorf("-shards %d outside [0, %d] (0 = auto)", p.Shards, MaxShards))
	}
	if p.Queue < 1 {
		errs = append(errs, fmt.Errorf("-queue %d, need >= 1", p.Queue))
	}
	if p.Scale <= 0 {
		errs = append(errs, fmt.Errorf("-scale %v, need > 0", p.Scale))
	}
	if p.Eta <= 0 || p.Eta > 1 {
		errs = append(errs, fmt.Errorf("-eta %v outside (0, 1]", p.Eta))
	}
	if p.Xi < 0 || p.Xi > 1 {
		errs = append(errs, fmt.Errorf("-xi %v outside [0, 1]", p.Xi))
	}
	if p.RateLimit < 0 {
		errs = append(errs, fmt.Errorf("-rate-limit %v, need >= 0 (0 = unlimited)", p.RateLimit))
	}
	return errors.Join(errs...)
}

// Durability are the WAL/checkpoint flags shared by the terids CLIs. The
// combinations are constrained: a WAL directory carries its own checkpoints
// and auto-recovers, so an explicit -restore alongside it is ambiguous, and
// the background checkpointer has nowhere to write without a WAL directory.
type Durability struct {
	// WALDir is -wal-dir (terids-serve) / -wal (terids): the durability
	// root. Empty disables the subsystem.
	WALDir string
	// Follow is -follow (terids-serve): a writer's durability root to tail
	// as a read-only follower replica. Mutually exclusive with WALDir and
	// Restore — a process is the writer of a directory or its follower,
	// never both; the checkpoint flags stay valid because they configure
	// the checkpointer the replica starts if it is promoted to writer.
	Follow string
	// Restore is -restore: an explicit checkpoint file to boot from.
	Restore string
	// CheckpointInterval is -checkpoint-interval: the background
	// checkpointer period (0 = disabled; requires WALDir when set).
	CheckpointInterval time.Duration
	// CheckpointKeep is -checkpoint-keep: snapshots retained, ≥ 1 (commands
	// without the flag pass 1).
	CheckpointKeep int
	// CheckpointDelta is -checkpoint-delta: incremental (delta) checkpoints
	// written between full snapshots, ≥ 0 (0 = always full; requires WALDir
	// when set — deltas only exist under the checkpointer).
	CheckpointDelta int
}

// Validate checks the durability flag combinations, joining all violations
// into one error.
func (d Durability) Validate() error {
	var errs []error
	if d.WALDir != "" && d.Restore != "" {
		errs = append(errs, errors.New(
			"-restore and the WAL directory flag are mutually exclusive: the WAL directory auto-recovers from its own newest checkpoint"))
	}
	if d.Follow != "" && d.WALDir != "" {
		errs = append(errs, errors.New(
			"-follow and the WAL directory flag are mutually exclusive: a process either writes a durability root or tails one as a replica"))
	}
	if d.Follow != "" && d.Restore != "" {
		errs = append(errs, errors.New(
			"-follow and -restore are mutually exclusive: a follower boots from the tailed directory's own newest checkpoint"))
	}
	if d.CheckpointInterval < 0 {
		errs = append(errs, fmt.Errorf("-checkpoint-interval %v, need >= 0 (0 = disabled)", d.CheckpointInterval))
	}
	if d.CheckpointInterval > 0 && d.WALDir == "" && d.Follow == "" {
		errs = append(errs, errors.New(
			"-checkpoint-interval requires the WAL directory flag (or -follow, where it arms the post-promotion checkpointer): periodic checkpoints are written under it"))
	}
	if d.CheckpointKeep < 1 {
		errs = append(errs, fmt.Errorf("-checkpoint-keep %d, need >= 1", d.CheckpointKeep))
	}
	if d.CheckpointDelta < 0 {
		errs = append(errs, fmt.Errorf("-checkpoint-delta %d, need >= 0 (0 = full snapshots only)", d.CheckpointDelta))
	}
	if d.CheckpointDelta > 0 && d.WALDir == "" && d.Follow == "" {
		errs = append(errs, errors.New(
			"-checkpoint-delta requires the WAL directory flag (or -follow): delta checkpoints are written by its background checkpointer"))
	}
	return errors.Join(errs...)
}

// Obs are the observability flags shared by the terids CLIs: the sampled
// arrival-trace rate and the debug (pprof/expvar) listener address.
type Obs struct {
	// TraceSample is -trace-sample: record every Nth arrival's full stage
	// timeline, ≥ 0 (0 disables tracing).
	TraceSample int
	// DebugAddr is -debug-addr: the separate pprof/expvar listener address.
	// Empty disables it.
	DebugAddr string
	// Addr is the main serving address (commands without a serving listener
	// pass ""); the debug listener must not collide with it.
	Addr string
}

// Validate checks the observability flag combinations, joining all
// violations into one error.
func (o Obs) Validate() error {
	var errs []error
	if o.TraceSample < 0 {
		errs = append(errs, fmt.Errorf("-trace-sample %d, need >= 0 (0 = disabled)", o.TraceSample))
	}
	if o.DebugAddr != "" && o.Addr != "" && o.DebugAddr == o.Addr {
		errs = append(errs, fmt.Errorf("-debug-addr %s collides with the serving address: the debug listener must be separate", o.DebugAddr))
	}
	return errors.Join(errs...)
}

// Replay are the /results replay flags of terids-serve. The ring capacity is
// load-bearing: a non-positive -replay-buffer would divide by zero in the
// ring's seq%capacity indexing, so it is rejected here at startup.
type Replay struct {
	// Buffer is -replay-buffer: merged results retained in the in-memory
	// replay ring, ≥ 1.
	Buffer int
	// Depth is -replay-depth: the maximum arrivals one WAL-backed deep
	// replay may re-run, ≥ 0 (0 = unlimited; requires a WAL directory to
	// matter, but is accepted without one since it is purely a bound).
	Depth int64
}

// Validate checks the replay flag ranges, joining all violations into one
// error.
func (r Replay) Validate() error {
	var errs []error
	if r.Buffer < 1 {
		errs = append(errs, fmt.Errorf("-replay-buffer %d, need >= 1 (the replay ring cannot be empty)", r.Buffer))
	}
	if r.Depth < 0 {
		errs = append(errs, fmt.Errorf("-replay-depth %d, need >= 0 (0 = unlimited)", r.Depth))
	}
	return errors.Join(errs...)
}
