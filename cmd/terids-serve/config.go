package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/engine"
	"terids/internal/obs"
)

// config is everything terids-serve is started with: one field per flag,
// with -slo and -slo-file parsed into the objectives they declare.
type config struct {
	addr, dataset, keywords string
	alpha, rho              float64
	w, streams              int
	eta, scale              float64
	seed                    int64
	shards, queue           int

	// /results replay and /snapshot.
	replayBuffer int
	replayDepth  int64
	ckptDir      string

	// Durability: -wal-dir writes a durability root, -follow tails one.
	restore, ckptOnExit, walDir, follow string
	promoteOnWriterLoss, ckptInterval   time.Duration
	ckptKeep, ckptDelta                 int

	// Ingest.
	rateLimit   float64
	rateBurst   int
	ingestBatch int

	// Observability.
	debugAddr, flightDir          string
	traceSample                   int
	sloInterval, sloFast, sloSlow time.Duration
	objectives                    []obs.Objective
}

// parseConfig parses the command line and validates the result; the error
// joins every violation, each naming its flag.
func parseConfig(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("terids-serve", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dataset, "dataset", "Citations", "dataset profile bootstrapping the repository/schema")
	fs.Float64Var(&c.alpha, "alpha", 0.5, "probabilistic threshold α in [0,1)")
	fs.Float64Var(&c.rho, "rho", 0.5, "similarity ratio ρ (γ = ρ·d)")
	fs.IntVar(&c.w, "w", 200, "sliding window size")
	fs.IntVar(&c.streams, "streams", 2, "number of incoming streams")
	fs.Float64Var(&c.eta, "eta", 0.5, "repository size ratio η")
	fs.Float64Var(&c.scale, "scale", 1.0, "dataset scale factor")
	fs.Int64Var(&c.seed, "seed", 1, "generation seed")
	fs.IntVar(&c.shards, "shards", 0, fmt.Sprintf("ER-grid shards (0 = GOMAXPROCS capped at 8; an explicit count may go up to %d)", engine.MaxShards))
	fs.IntVar(&c.queue, "queue", 256, "bounded queue depth per pipeline stage")
	fs.StringVar(&c.keywords, "keywords", "", "comma-separated query keywords (default: the profile's topics)")
	fs.IntVar(&c.replayBuffer, "replay-buffer", 4096, "merged results retained for /results?from= replay")
	fs.Int64Var(&c.replayDepth, "replay-depth", 0, "max arrivals one WAL-backed deep replay may re-run (0 = unlimited)")
	fs.StringVar(&c.restore, "restore", "", "boot the engine from this checkpoint file")
	fs.StringVar(&c.ckptOnExit, "checkpoint-on-exit", "", "drain and write a final checkpoint here on SIGINT/SIGTERM")
	fs.StringVar(&c.ckptDir, "checkpoint-dir", "", "directory /snapshot?path= may write into (empty = server-side writes disabled)")
	fs.StringVar(&c.walDir, "wal-dir", "", "durability root: write-ahead log + periodic checkpoints + auto-recovery on boot")
	fs.StringVar(&c.follow, "follow", "", "tail this durability root as a read-only follower replica: restore its newest checkpoint, tail the writer's WAL, serve reads; POST /promote takes over as writer")
	fs.DurationVar(&c.promoteOnWriterLoss, "promote-on-writer-loss", 0, "auto-promote once the writer's liveness lock has been free this long (0 = manual POST /promote only; requires -follow)")
	fs.DurationVar(&c.ckptInterval, "checkpoint-interval", 0, "background checkpoint period (0 = disabled; requires -wal-dir)")
	fs.IntVar(&c.ckptKeep, "checkpoint-keep", 2, "checkpoint states retained under -wal-dir (older ones and their WAL segments are pruned)")
	fs.IntVar(&c.ckptDelta, "checkpoint-delta", 0, "delta checkpoints written between full snapshots under -wal-dir (0 = always full)")
	fs.Float64Var(&c.rateLimit, "rate-limit", 0, "per-stream ingest rate limit in tuples/sec (0 = unlimited; over-limit gets 429 + Retry-After)")
	fs.IntVar(&c.rateBurst, "rate-burst", 0, "per-stream token-bucket burst (0 = one second's worth of -rate-limit)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "separate listener for net/http/pprof, expvar, and /metrics (empty = disabled)")
	fs.IntVar(&c.traceSample, "trace-sample", 0, "record every Nth arrival's full stage timeline for GET /trace (0 = disabled)")
	fs.IntVar(&c.ingestBatch, "ingest-batch", 64, "NDJSON arrivals /ingest groups into one engine submission (1 = submit per line)")
	fs.StringVar(&c.flightDir, "flight-dir", "", "directory for crash flight-recorder bundles — written on panic, SIGQUIT, or POST /debug/dump (empty = disabled)")
	fs.Func("slo-file", "file of SLO specs, one per line (#-comments and blanks skipped)", func(path string) error {
		content, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		objs, err := obs.ParseSLOFile(string(content))
		c.objectives = append(c.objectives, objs...)
		return err
	})
	fs.DurationVar(&c.sloInterval, "slo-interval", 10*time.Second, "SLO evaluation period")
	fs.DurationVar(&c.sloFast, "slo-fast", 5*time.Minute, "fast burn-rate window (page-worthy: burn >= 1 here is a breach)")
	fs.DurationVar(&c.sloSlow, "slo-slow", time.Hour, "slow burn-rate window (budget tracking; burn >= 1 here is a warning)")
	fs.Func("slo", "SLO objective spec, repeatable: name:family[{k=v,...}]:pQQ<duration (latency) or name:err_family/total_family<fraction (ratio)",
		func(spec string) error {
			o, err := obs.ParseSLO(spec)
			if err != nil {
				return err
			}
			c.objectives = append(c.objectives, o)
			return nil
		})
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, c.validate()
}

// core is the operator configuration serve runs over a d-attribute schema.
func (c config) core(d int, keywords []string) core.Config {
	return core.Config{
		Keywords: keywords, Gamma: c.rho * float64(d), Alpha: c.alpha,
		WindowSize: c.w, Streams: c.streams,
	}
}

// root is the durability directory: written with -wal-dir, tailed with
// -follow (the flags are exclusive).
func (c config) root() string {
	if c.walDir != "" {
		return c.walDir
	}
	return c.follow
}

// validate checks every flag before any data is generated, joining all
// violations. The operator parameters are checked by core.Config.Validate,
// the code that owns their ranges.
func (c config) validate() error {
	var errs []error
	bad := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	if prof, err := dataset.ProfileByName(c.dataset); err != nil {
		bad("-dataset: %w", err)
	} else {
		d := len(prof.Attrs)
		cc := c.core(d, nil)
		if err := cc.Validate(d); err != nil {
			bad("-alpha %v -rho %v -w %d -streams %d: %w", c.alpha, c.rho, c.w, c.streams, err)
		}
	}
	if c.shards < 0 || c.shards > engine.MaxShards {
		bad("-shards %d outside [0, %d] (0 = auto)", c.shards, engine.MaxShards)
	}
	if c.queue < 1 {
		bad("-queue %d, need >= 1", c.queue)
	}
	if c.scale <= 0 {
		bad("-scale %v, need > 0", c.scale)
	}
	if c.eta <= 0 || c.eta > 1 {
		bad("-eta %v outside (0, 1]", c.eta)
	}
	if c.replayBuffer < 1 {
		bad("-replay-buffer %d, need >= 1 (the replay ring cannot be empty)", c.replayBuffer)
	}
	if c.replayDepth < 0 {
		bad("-replay-depth %d, need >= 0 (0 = unlimited)", c.replayDepth)
	}

	if c.walDir != "" && c.restore != "" {
		bad("-restore and -wal-dir are mutually exclusive: the WAL directory auto-recovers from its own newest checkpoint")
	}
	if c.follow != "" && c.walDir != "" {
		bad("-follow and -wal-dir are mutually exclusive: a process either writes a durability root or tails one as a replica")
	}
	if c.follow != "" && c.restore != "" {
		bad("-follow and -restore are mutually exclusive: a follower boots from the tailed directory's own newest checkpoint")
	}
	if c.ckptInterval < 0 {
		bad("-checkpoint-interval %v, need >= 0 (0 = disabled)", c.ckptInterval)
	}
	if c.ckptInterval > 0 && c.root() == "" {
		bad("-checkpoint-interval requires -wal-dir (or -follow, where it arms the post-promotion checkpointer): periodic checkpoints are written under it")
	}
	if c.ckptKeep < 1 {
		bad("-checkpoint-keep %d, need >= 1", c.ckptKeep)
	}
	if c.ckptDelta < 0 {
		bad("-checkpoint-delta %d, need >= 0 (0 = full snapshots only)", c.ckptDelta)
	}
	if c.ckptDelta > 0 && c.root() == "" {
		bad("-checkpoint-delta requires -wal-dir (or -follow): delta checkpoints are written by its background checkpointer")
	}
	if c.promoteOnWriterLoss < 0 {
		bad("-promote-on-writer-loss %v, need >= 0 (0 = manual promotion only)", c.promoteOnWriterLoss)
	}
	if c.promoteOnWriterLoss > 0 && c.follow == "" {
		bad("-promote-on-writer-loss requires -follow: only a follower replica can take over")
	}

	if c.rateLimit < 0 {
		bad("-rate-limit %v, need >= 0 (0 = unlimited)", c.rateLimit)
	}
	if c.ingestBatch < 1 {
		bad("-ingest-batch %d, need >= 1", c.ingestBatch)
	}
	if c.traceSample < 0 {
		bad("-trace-sample %d, need >= 0 (0 = disabled)", c.traceSample)
	}
	if c.debugAddr != "" && c.debugAddr == c.addr {
		bad("-debug-addr %s collides with -addr: the debug listener must be separate", c.debugAddr)
	}
	if len(c.objectives) > 0 && (c.sloInterval <= 0 || c.sloFast <= 0 || c.sloSlow < c.sloFast) {
		bad("-slo-interval and -slo-fast must be positive, -slo-slow >= -slo-fast")
	}
	return errors.Join(errs...)
}
