// Command terids runs the TER-iDS operator over one of the built-in
// synthetic dataset profiles and streams matching pairs to stdout as they
// are detected, alongside summary statistics — a quick way to watch online
// topic-aware entity resolution over incomplete streams.
//
// Usage:
//
//	terids -dataset Citations -alpha 0.5 -rho 0.5 -xi 0.3 -w 200 -max 500 -v
//
// The run can be checkpointed and resumed: -checkpoint <file> writes the
// final operator state when the stream ends, and -restore <file> loads a
// checkpoint and skips the arrivals it already covers (same dataset flags
// and seed regenerate the same stream, so the suffix lines up exactly).
//
// -shards K > 1 runs the concurrent engine over K grid partitions; -shards 0
// lets the engine size K itself (GOMAXPROCS, capped at 8).
//
// For crash-safe runs, -wal <dir> logs every arrival to a write-ahead log
// before processing it and auto-resumes: rerunning the same command after a
// kill recovers the newest checkpoint under the directory (periodic with
// -checkpoint-interval, always one final on completion), replays the WAL
// suffix, and continues with the remaining arrivals — the combined output is
// identical to an uninterrupted run. Mutually exclusive with -restore; the
// same dataset flags must be used across reruns.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/engine"
	"terids/internal/metrics"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tuple"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("terids: ")

	var (
		name      = flag.String("dataset", "Citations", "dataset profile (Citations, Anime, Bikes, EBooks, Songs)")
		alpha     = flag.Float64("alpha", 0.5, "probabilistic threshold α in [0,1)")
		rho       = flag.Float64("rho", 0.5, "similarity ratio ρ (γ = ρ·d)")
		xi        = flag.Float64("xi", 0.3, "missing rate ξ")
		m         = flag.Int("m", 1, "missing attributes per incomplete tuple")
		w         = flag.Int("w", 200, "sliding window size")
		eta       = flag.Float64("eta", 0.5, "repository size ratio η")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		seed      = flag.Int64("seed", 1, "generation seed")
		max       = flag.Int("max", 0, "max arrivals to process (0 = all)")
		shards    = flag.Int("shards", 1, fmt.Sprintf("ER-grid shards (>1 runs the concurrent engine, up to %d; 0 = the engine auto-sizes, capped at 8)", engine.MaxShards))
		keywords  = flag.String("keywords", "", "comma-separated query keywords (default: the profile's topics)")
		verbose   = flag.Bool("v", false, "print every matching pair as it is found")
		ckptOut   = flag.String("checkpoint", "", "write the final operator state to this file when the stream ends")
		restore   = flag.String("restore", "", "resume from a checkpoint file (skips the arrivals it covers)")
		walDir    = flag.String("wal", "", "write-ahead log directory: crash-safe run, reruns auto-resume (mutually exclusive with -restore)")
		ckptEvery = flag.Duration("checkpoint-interval", 0,
			"periodic background checkpoints under -wal (0 = only the final one; requires -wal)")
		debugAddr = flag.String("debug-addr", "", "listener for net/http/pprof, expvar, and /metrics while the run executes (empty = disabled)")
		batch     = flag.Int("batch", 64, "arrivals submitted per engine batch when -shards > 1 (1 = submit one at a time)")
	)
	flag.Parse()
	prof, err := dataset.ProfileByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	// The operator parameters are checked by core.Config.Validate, which
	// owns their ranges, before any data is generated.
	d := len(prof.Attrs)
	cfg := core.Config{Gamma: *rho * float64(d), Alpha: *alpha, WindowSize: *w, Streams: 2}
	coreErr := cfg.Validate(d)
	if coreErr != nil {
		coreErr = fmt.Errorf("-alpha %v -rho %v -w %d: %w", *alpha, *rho, *w, coreErr)
	}
	if err := errors.Join(coreErr, checkFlags(*scale, *eta, *xi, *shards, *walDir, *restore, *ckptEvery)); err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(obs.Default())); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	data, err := dataset.Generate(prof, dataset.Options{
		Scale: *scale, MissingRate: *xi, MissingAttrs: *m, RepoRatio: *eta, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	kws := data.Keywords
	if *keywords != "" {
		kws = strings.Split(*keywords, ",")
	}

	fmt.Printf("dataset %s: %d stream tuples, repository %d, keywords %v\n",
		prof.Name, len(data.Stream), data.Repo.Len(), kws)

	start := time.Now()
	sh, err := core.Prepare(data.Repo, core.DefaultPrepareConfig(kws))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline phase: %d rules, pivots %v, indexes built in %v\n",
		sh.Rules.Len(), pivotCounts(sh), time.Since(start).Round(time.Millisecond))

	cfg.Keywords = kws

	stream := data.Stream
	if *max > 0 && len(stream) > *max {
		stream = stream[:*max]
	}
	emitted := map[metrics.PairKey]bool{}
	var ckpt *snapshot.Checkpoint
	// replayRecs are the arrivals this process re-runs from the WAL (between
	// the recovered checkpoint's watermark and the log frontier); the summary
	// counts them as processed.
	var replayRecs []*tuple.Record
	// The checkpoint to resume from: -restore's file, or the newest one
	// under -wal (whose WAL suffix OpenDurable replays below).
	ckptPath := *restore
	if *restore != "" {
		ckpt, err = snapshot.ReadFile(*restore)
	} else if *walDir != "" {
		ckptPath, ckpt, err = engine.LatestCheckpoint(*walDir)
	}
	if err != nil {
		log.Fatal(err)
	}
	if ckpt != nil {
		if ckpt.Seq > int64(len(stream)) {
			log.Fatalf("checkpoint watermark %d beyond the %d-arrival stream (same -dataset/-seed/-scale flags regenerate it)",
				ckpt.Seq, len(stream))
		}
		if *restore != "" {
			fmt.Printf("restored %s: watermark %d, %d residents, %d live pairs — resuming at arrival %d\n",
				ckptPath, ckpt.Seq, len(ckpt.Residents), len(ckpt.Pairs), ckpt.Seq)
			stream = stream[ckpt.Seq:]
		} else {
			fmt.Printf("recovering %s: watermark %d, %d residents, %d live pairs\n",
				ckptPath, ckpt.Seq, len(ckpt.Residents), len(ckpt.Pairs))
		}
		// The summary below only sees the resumed suffix; carry the
		// checkpoint's live pairs into the emitted set so it stays coherent.
		for _, pr := range ckpt.Pairs {
			emitted[metrics.Key(ckpt.Residents[pr.A].RID, ckpt.Residents[pr.B].RID)] = true
		}
	}
	var (
		liveLen   int
		breakdown metrics.Breakdown
		pruneStat metrics.PruneStats
		elapsed   time.Duration
	)
	if *shards != 1 || *walDir != "" {
		engCfg := engine.Config{
			Core:   cfg,
			Shards: *shards,
			OnResult: func(res engine.Result) {
				for _, p := range res.Pairs {
					emitted[p.Key()] = true
					if *verbose {
						// Print the arriving side's timestamp, matching the
						// single-threaded path (pairs are RID-normalized, so
						// the arrival may be either side).
						t := p.A.Seq
						if p.A.RID != res.RID {
							t = p.B.Seq
						}
						fmt.Printf("t=%-6d match %s ~ %s (Pr=%.3f)\n",
							t, p.A.RID, p.B.RID, p.Prob)
					}
				}
			},
		}
		var eng *engine.Engine
		var dur *engine.Durable
		switch {
		case *walDir != "":
			// The checkpoint restore and the WAL replay both happen inside
			// OpenDurable (the replay flows through OnResult above, so its
			// matches land in the emitted set like any other).
			dur, err = engine.OpenDurable(sh, engCfg, engine.DurableConfig{
				Dir: *walDir, CheckpointInterval: *ckptEvery,
				Checkpoint: ckpt, Logf: log.Printf,
			})
			if err != nil {
				log.Fatal(err)
			}
			eng = dur.Eng
			resume := dur.ResumeSeq()
			if resume > int64(len(stream)) {
				log.Fatalf("wal frontier %d beyond the %d-arrival stream (same -dataset/-seed/-scale flags regenerate it)",
					resume, len(stream))
			}
			if resume > 0 {
				watermark := resume - dur.Replayed()
				replayRecs = stream[watermark:resume]
				fmt.Printf("wal: resumed at arrival %d (%d replayed from the log)\n", resume, dur.Replayed())
			}
			stream = stream[resume:]
		default:
			eng, err = engine.NewFromSnapshot(sh, engCfg, ckpt) // nil ckpt: fresh engine
		}
		if err != nil {
			log.Fatal(err)
		}
		bs := *batch
		if bs < 1 {
			bs = 1
		}
		start = time.Now()
		for off := 0; off < len(stream); off += bs {
			end := off + bs
			if end > len(stream) {
				end = len(stream)
			}
			if err := eng.SubmitBatch(stream[off:end]); err != nil {
				log.Fatal(err)
			}
		}
		if dur != nil {
			// Drains the pipeline and writes one final checkpoint, so a
			// rerun of the same command resumes past the whole stream.
			if err := dur.Close(true); err != nil {
				log.Fatal(err)
			}
		} else if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
		elapsed = time.Since(start)
		st := eng.Stats()
		liveLen = st.LivePairs
		breakdown = st.Totals.Breakdown
		pruneStat = st.Totals.Prune
		fmt.Printf("engine: %d shards, per-shard residents ", st.Shards)
		for i, ss := range st.PerShard {
			if i > 0 {
				fmt.Print("/")
			}
			fmt.Print(ss.Residents)
		}
		fmt.Printf(" (imbalance %.2f)\n", st.Imbalance)
		printStageLatencies()
		if *ckptOut != "" {
			c, err := eng.Checkpoint()
			if err != nil {
				log.Fatal(err)
			}
			writeCheckpoint(*ckptOut, c)
		}
	} else {
		var proc *core.Processor
		if ckpt != nil {
			proc, err = core.NewProcessorFromSnapshot(sh, cfg, ckpt)
		} else {
			proc, err = core.NewProcessor(sh, cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		for _, r := range stream {
			pairs, err := proc.Advance(r)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range pairs {
				emitted[p.Key()] = true
				if *verbose {
					fmt.Printf("t=%-6d match %s ~ %s (Pr=%.3f)\n", r.Seq, p.A.RID, p.B.RID, p.Prob)
				}
			}
		}
		elapsed = time.Since(start)
		liveLen = proc.Results().Len()
		breakdown = proc.Breakdown()
		pruneStat = proc.PruneStats()
		if *ckptOut != "" {
			c, err := proc.Snapshot()
			if err != nil {
				log.Fatal(err)
			}
			writeCheckpoint(*ckptOut, c)
		}
	}

	// Ground truth restricted to the processed prefix (plus, on a resumed
	// run, the restored residents).
	truth := data.TruthPairs(*w, cfg.Gamma)
	seen := map[string]bool{}
	for _, r := range stream {
		seen[r.RID] = true
	}
	for _, r := range replayRecs {
		seen[r.RID] = true
	}
	if ckpt != nil {
		for _, res := range ckpt.Residents {
			seen[res.RID] = true
		}
	}
	for k := range truth {
		if !seen[k.A] || !seen[k.B] {
			delete(truth, k)
		}
	}
	conf := metrics.Compare(emitted, truth)
	perTuple := 0.0
	if len(stream) > 0 {
		perTuple = float64(elapsed.Microseconds()) / float64(len(stream))
	}
	fmt.Printf("\nprocessed %d arrivals in %v (%.1f µs/tuple)\n",
		len(stream), elapsed.Round(time.Millisecond), perTuple)
	fmt.Printf("pairs emitted %d, live result set %d\n", len(emitted), liveLen)
	fmt.Printf("F-score vs ground truth: %.2f%% (precision %.2f%%, recall %.2f%%)\n",
		conf.F1()*100, conf.Precision()*100, conf.Recall()*100)
	fmt.Printf("cost breakdown: %v\n", breakdown)
	topic, simUB, probUB, instPair, total := pruneStat.Power()
	fmt.Printf("pruning power: topic %.1f%% simUB %.1f%% probUB %.1f%% instPair %.1f%% total %.1f%%\n",
		topic, simUB, probUB, instPair, total)
	if conf.TP == 0 && len(truth) > 0 {
		os.Exit(1)
	}
}

func writeCheckpoint(path string, c *snapshot.Checkpoint) {
	if err := snapshot.WriteFile(path, c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: wrote %s (watermark %d, %d residents, %d live pairs)\n",
		path, c.Seq, len(c.Residents), len(c.Pairs))
}

func pivotCounts(sh *core.Shared) []int {
	out := make([]int, len(sh.Sel.PerAttr))
	for i := range sh.Sel.PerAttr {
		out[i] = sh.Sel.PerAttr[i].NumPivots()
	}
	return out
}

// checkFlags checks the flags core.Config.Validate does not own, joining
// every violation. A WAL directory carries its own checkpoints and
// auto-recovers, so an explicit -restore alongside it is ambiguous, and the
// background checkpointer has nowhere to write without one.
func checkFlags(scale, eta, xi float64, shards int, walDir, restore string, ckptEvery time.Duration) error {
	var errs []error
	bad := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	if scale <= 0 {
		bad("-scale %v, need > 0", scale)
	}
	if eta <= 0 || eta > 1 {
		bad("-eta %v outside (0, 1]", eta)
	}
	if xi < 0 || xi > 1 {
		bad("-xi %v outside [0, 1]", xi)
	}
	if shards < 0 || shards > engine.MaxShards {
		bad("-shards %d outside [0, %d] (0 = auto)", shards, engine.MaxShards)
	}
	if walDir != "" && restore != "" {
		bad("-restore and -wal are mutually exclusive: the WAL directory auto-recovers from its own newest checkpoint")
	}
	if ckptEvery < 0 {
		bad("-checkpoint-interval %v, need >= 0 (0 = only the final checkpoint)", ckptEvery)
	}
	if ckptEvery > 0 && walDir == "" {
		bad("-checkpoint-interval requires -wal: periodic checkpoints are written under it")
	}
	return errors.Join(errs...)
}
