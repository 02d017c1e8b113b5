// Command terids runs the TER-iDS operator over one of the built-in
// synthetic dataset profiles and streams matching pairs to stdout as they
// are detected, alongside summary statistics — a quick way to watch online
// topic-aware entity resolution over incomplete streams.
//
// Usage:
//
//	terids -dataset Citations -alpha 0.5 -rho 0.5 -xi 0.3 -w 200 -max 500 -v
//
// -shards K > 1 runs the concurrent engine over K grid partitions, fed in
// batches of 64 arrivals; -shards 0 lets the engine size K itself
// (GOMAXPROCS, capped at 8). Both paths print the same pairs and F-score.
// Durable runs — write-ahead log, checkpoints, restore — belong to
// terids-serve (-wal-dir, -restore, -checkpoint-on-exit).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/engine"
	"terids/internal/metrics"
)

// batchSize is how many arrivals the engine path submits at once.
const batchSize = 64

func main() {
	log.SetFlags(0)
	log.SetPrefix("terids: ")

	var (
		name     = flag.String("dataset", "Citations", "dataset profile (Citations, Anime, Bikes, EBooks, Songs)")
		alpha    = flag.Float64("alpha", 0.5, "probabilistic threshold α in [0,1)")
		rho      = flag.Float64("rho", 0.5, "similarity ratio ρ (γ = ρ·d)")
		xi       = flag.Float64("xi", 0.3, "missing rate ξ")
		m        = flag.Int("m", 1, "missing attributes per incomplete tuple")
		w        = flag.Int("w", 200, "sliding window size")
		eta      = flag.Float64("eta", 0.5, "repository size ratio η")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		seed     = flag.Int64("seed", 1, "generation seed")
		max      = flag.Int("max", 0, "max arrivals to process (0 = all)")
		shards   = flag.Int("shards", 1, fmt.Sprintf("ER-grid shards (>1 runs the concurrent engine, up to %d; 0 = the engine auto-sizes, capped at 8)", engine.MaxShards))
		keywords = flag.String("keywords", "", "comma-separated query keywords (default: the profile's topics)")
		verbose  = flag.Bool("v", false, "print every matching pair as it is found")
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
	if err := errors.Join(coreErr, checkFlags(*scale, *eta, *xi, *shards)); err != nil {
		log.Fatal(err)
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
	var (
		liveLen   int
		breakdown metrics.Breakdown
		pruneStat metrics.PruneStats
		elapsed   time.Duration
	)
	if *shards != 1 {
		eng, err := engine.New(sh, engine.Config{
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
		})
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		for off := 0; off < len(stream); off += batchSize {
			if err := eng.SubmitBatch(stream[off:min(off+batchSize, len(stream))]); err != nil {
				log.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
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
	} else {
		proc, err := core.NewProcessor(sh, cfg)
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
	}

	// Ground truth restricted to the processed prefix.
	truth := data.TruthPairs(*w, cfg.Gamma)
	seen := map[string]bool{}
	for _, r := range stream {
		seen[r.RID] = true
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

func pivotCounts(sh *core.Shared) []int {
	out := make([]int, len(sh.Sel.PerAttr))
	for i := range sh.Sel.PerAttr {
		out[i] = sh.Sel.PerAttr[i].NumPivots()
	}
	return out
}

// checkFlags checks the flags core.Config.Validate does not own, joining
// every violation.
func checkFlags(scale, eta, xi float64, shards int) error {
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
	return errors.Join(errs...)
}
