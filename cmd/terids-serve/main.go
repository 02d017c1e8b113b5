// Command terids-serve exposes the sharded TER-iDS engine as an HTTP ingest
// server: incomplete tuples are POSTed as NDJSON, flow through the
// concurrent impute → shard → merge pipeline, and matching pairs stream back
// out as they are detected.
//
// The offline state (repository, rules, indexes) is bootstrapped from one of
// the built-in synthetic dataset profiles; the online phase then accepts
// arbitrary tuples over that profile's schema.
//
// Endpoints:
//
//	POST /ingest    NDJSON arrivals {"rid","stream","seq","values":[...]}
//	                ("-" or "" marks a missing attribute). Backpressure comes
//	                from the engine's bounded queues: when the ingest queue is
//	                full the server replies 429 (with Retry-After) unless the
//	                request opts into blocking with ?wait=1.
//	GET  /results   live NDJSON stream of per-arrival results (matches +
//	                expirations); ?snapshot=1 returns the current entity set;
//	                ?from=seq replays the merged results with sequence >= seq
//	                before going live — from the in-memory ring when
//	                retained, regenerated byte-identically from checkpoint +
//	                WAL (deep replay; -wal-dir or -follow) when the cursor
//	                fell behind it (410 Gone only below the retained durable
//	                coverage).
//	POST /snapshot  barrier checkpoint of the full engine state; ?path=
//	                writes it server-side under -checkpoint-dir (disabled
//	                unless that flag is set), otherwise the binary
//	                checkpoint is the response body.
//	POST /rebalance admin trigger for an online reshard (barrier →
//	                re-install → resume); ?shards=K changes the shard
//	                count, none re-installs at the current one.
//	GET  /stats     engine + server counters as JSON, including per-shard
//	                residents, the imbalance ratio, and reshard counters.
//	GET  /metrics   Prometheus text exposition: per-stage latency histograms
//	                (impute, route, shard ER, merge, WAL, checkpoint, deep
//	                replay) with p50/p95/p99 quantile gauges, plus counters.
//	GET  /trace     sampled arrival timelines as NDJSON (-trace-sample N
//	                records one in N arrivals' full per-stage breakdown).
//	GET  /healthz   liveness (503 once the pipeline has failed or shutdown
//	                has begun; 200 while still starting or recovering).
//	GET  /readyz    readiness (503 with a reason body — "starting",
//	                "recovering", "rebalancing" — until recovery replay
//	                finishes and the engine is serving traffic).
//	GET  /events    the lifecycle event journal as NDJSON — reshards,
//	                checkpoints, WAL rotation/truncation, deep replays,
//	                throttle episodes, SLO transitions, recovery — oldest
//	                first; ?from=seq resumes from a cursor.
//	GET  /slo       per-objective service-level status as JSON: current
//	                value, fast/slow burn rates, remaining error budget, and
//	                ok/warn/breach state (requires -slo or -slo-file).
//	POST /debug/dump  write a flight-recorder bundle now and return its path
//	                (requires -flight-dir).
//	POST /promote   flip a follower replica (-follow) to the writer: seal
//	                at the WAL frontier, replay the un-tailed remainder,
//	                attach the log, reopen /ingest and /rebalance. 409 while
//	                the old writer still holds the liveness lock.
//
// The HTTP listener starts before the engine: during a long recovery replay
// the probes, /metrics, and /events already answer, while engine-backed
// endpoints return 503 with the startup phase as the body.
//
// -slo declares service-level objectives over the exported metric families
// (repeatable; -slo-file loads one spec per line). Latency objectives read
// "name:family:pQQ<bound" (e.g. ingest-p99:terids_impute_seconds:p99<250ms),
// ratio objectives "name:err_family/total_family<fraction". Objectives are
// evaluated every -slo-interval over sliding -slo-fast/-slo-slow windows
// (multi-window burn rate); state transitions land in the journal and the
// terids_slo_* gauge families.
//
// -flight-dir arms the crash flight recorder: a panic, SIGQUIT, or
// POST /debug/dump atomically writes one diagnostic bundle (recent journal
// events, sampled traces, a /metrics snapshot, engine stats, all goroutine
// stacks) into the directory; panics additionally stream the runtime's crash
// report to crash.txt there.
//
// -debug-addr starts a second listener exposing net/http/pprof, expvar, and
// /metrics — kept off the public serving address so profilers and debug
// state never ride the ingest port.
//
// Operations: -wal-dir <dir> turns on the durability subsystem — every
// accepted arrival is group-committed to a write-ahead log before it enters
// the pipeline, a background checkpointer (-checkpoint-interval) snapshots
// the full engine state atomically (incrementally with -checkpoint-delta N:
// v3 delta checkpoints between full snapshots) and prunes obsolete WAL
// segments, and on boot the server auto-recovers: newest snapshot + WAL
// replay rebuilds the exact pre-crash state, including the /results replay
// ring, so a client cursor taken before the crash resumes across the
// restart without a 410. Cursors below even the rebuilt ring are served by
// deep replay — a throwaway engine re-runs the WAL from the newest
// checkpoint at-or-below the cursor and regenerates the exact historical
// results (-replay-depth bounds the per-request regeneration cost).
// -rate-limit caps per-stream ingest (token bucket per stream id; over-limit
// lines get 429 with Retry-After). -restore <file> boots the engine from an
// explicit checkpoint instead (mutually exclusive with -wal-dir);
// -checkpoint-on-exit <file> makes SIGINT/SIGTERM drain the pipeline and
// write a final checkpoint before exiting. Every windowed tuple resides in
// grid partition fnv32a(RID) mod K, so shard load is balanced whatever the
// stream's topic mix and there is nothing to tune; POST /rebalance changes K
// online (checkpoints carry K, so -shards 0 recovery resumes at it).
//
// Read-path scale-out: -follow <dir> boots the process as a read-only
// follower replica over another terids-serve's -wal-dir. Writer and
// follower hold the same kind of handle on the directory, one
// engine.Durable; the follower's is in following mode. It restores the
// newest checkpoint there, then continuously tails the writer's WAL, so its
// /results, /stats, /metrics, /slo, and /events are byte-identical to the
// writer's, one poll interval behind (terids_follower_lag gauges the gap).
// That covers /results?from= cursors below its ring too: deep replay reads
// the WAL through the tailer. /ingest and /rebalance answer 503 on a
// follower. When the writer's checkpointer truncates the WAL below the
// follower's cursor, the follower applies the delta-checkpoint chain onto
// its live engine instead of rebuilding. POST /promote (or
// -promote-on-writer-loss after the writer's flock has been free that long)
// performs warm-standby takeover as a mode flip on the same handle: seal at
// the WAL frontier, replay the remainder, attach the log, resume ingest as
// the writer.
//
// Usage:
//
//	terids-serve -addr :8080 -dataset Citations -shards 4 -alpha 0.5 -rho 0.5
//	terids-serve -wal-dir state/ -checkpoint-interval 30s -rate-limit 1000
//	curl -X POST --data-binary @arrivals.ndjson localhost:8080/ingest
//	curl -N localhost:8080/results
//	curl -X POST 'localhost:8080/snapshot?path=ckpt.bin'   # needs -checkpoint-dir
//	curl -N 'localhost:8080/results?from=1000'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"terids/internal/cliutil"
	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/engine"
	"terids/internal/obs"
	"terids/internal/snapshot"
)

// version identifies the build in terids_build_info and flight-recorder
// bundles; override at link time with -ldflags "-X main.version=...".
var version = "dev"

func main() {
	log.SetFlags(0)
	log.SetPrefix("terids-serve: ")

	var (
		addr        = flag.String("addr", ":8080", "listen address")
		name        = flag.String("dataset", "Citations", "dataset profile bootstrapping the repository/schema")
		alpha       = flag.Float64("alpha", 0.5, "probabilistic threshold α in [0,1)")
		rho         = flag.Float64("rho", 0.5, "similarity ratio ρ (γ = ρ·d)")
		w           = flag.Int("w", 200, "sliding window size")
		streams     = flag.Int("streams", 2, "number of incoming streams")
		eta         = flag.Float64("eta", 0.5, "repository size ratio η")
		scale       = flag.Float64("scale", 1.0, "dataset scale factor")
		seed        = flag.Int64("seed", 1, "generation seed")
		shards      = flag.Int("shards", 0, "ER-grid shards (0 = GOMAXPROCS, max 8)")
		queue       = flag.Int("queue", 256, "bounded queue depth per pipeline stage")
		keywords    = flag.String("keywords", "", "comma-separated query keywords (default: the profile's topics)")
		replayCap   = flag.Int("replay-buffer", 4096, "merged results retained for /results?from= replay")
		replayDep   = flag.Int64("replay-depth", 0, "max arrivals one WAL-backed deep replay may re-run (0 = unlimited)")
		restore     = flag.String("restore", "", "boot the engine from this checkpoint file")
		ckptOnExit  = flag.String("checkpoint-on-exit", "", "drain and write a final checkpoint here on SIGINT/SIGTERM")
		ckptDir     = flag.String("checkpoint-dir", "", "directory /snapshot?path= may write into (empty = server-side writes disabled)")
		walDir      = flag.String("wal-dir", "", "durability root: write-ahead log + periodic checkpoints + auto-recovery on boot")
		follow      = flag.String("follow", "", "tail this durability root as a read-only follower replica: restore its newest checkpoint, tail the writer's WAL, serve reads; POST /promote takes over as writer")
		promoteLoss = flag.Duration("promote-on-writer-loss", 0, "auto-promote once the writer's liveness lock has been free this long (0 = manual POST /promote only; requires -follow)")
		ckptEvery   = flag.Duration("checkpoint-interval", 0, "background checkpoint period (0 = disabled; requires -wal-dir)")
		ckptKeep    = flag.Int("checkpoint-keep", 2, "checkpoint states retained under -wal-dir (older ones and their WAL segments are pruned)")
		ckptDelta   = flag.Int("checkpoint-delta", 0, "delta checkpoints written between full snapshots under -wal-dir (0 = always full)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-stream ingest rate limit in tuples/sec (0 = unlimited; over-limit gets 429 + Retry-After)")
		rateBurst   = flag.Int("rate-burst", 0, "per-stream token-bucket burst (0 = one second's worth of -rate-limit)")
		debugAddr   = flag.String("debug-addr", "", "separate listener for net/http/pprof, expvar, and /metrics (empty = disabled)")
		traceEvery  = flag.Int("trace-sample", 0, "record every Nth arrival's full stage timeline for GET /trace (0 = disabled)")
		ingestBatch = flag.Int("ingest-batch", 64, "NDJSON arrivals /ingest groups into one engine submission (1 = submit per line)")
		flightDir   = flag.String("flight-dir", "", "directory for crash flight-recorder bundles — written on panic, SIGQUIT, or POST /debug/dump (empty = disabled)")
		sloFile     = flag.String("slo-file", "", "file of SLO specs, one per line (#-comments and blanks skipped)")
		sloEvery    = flag.Duration("slo-interval", 10*time.Second, "SLO evaluation period")
		sloFast     = flag.Duration("slo-fast", 5*time.Minute, "fast burn-rate window (page-worthy: burn >= 1 here is a breach)")
		sloSlow     = flag.Duration("slo-slow", time.Hour, "slow burn-rate window (budget tracking; burn >= 1 here is a warning)")
	)
	var sloSpecs []string
	flag.Func("slo", "SLO objective spec, repeatable: name:family[{k=v,...}]:pQQ<duration (latency) or name:err_family/total_family<fraction (ratio)",
		func(v string) error { sloSpecs = append(sloSpecs, v); return nil })
	flag.Parse()
	if err := (cliutil.Params{
		Alpha: *alpha, Rho: *rho, W: *w, Streams: *streams, Shards: *shards,
		Queue: *queue, Scale: *scale, Eta: *eta, Xi: 0.3, RateLimit: *rateLimit,
	}).Validate(); err != nil {
		log.Fatal(err)
	}
	if err := (cliutil.Durability{
		WALDir: *walDir, Follow: *follow, Restore: *restore,
		CheckpointInterval: *ckptEvery, CheckpointKeep: *ckptKeep,
		CheckpointDelta: *ckptDelta,
	}).Validate(); err != nil {
		log.Fatal(err)
	}
	if *promoteLoss < 0 {
		log.Fatal("-promote-on-writer-loss must be >= 0 (0 = manual promotion only)")
	}
	if *promoteLoss > 0 && *follow == "" {
		log.Fatal("-promote-on-writer-loss requires -follow: only a follower replica can take over")
	}
	if err := (cliutil.Replay{Buffer: *replayCap, Depth: *replayDep}).Validate(); err != nil {
		log.Fatal(err)
	}
	if err := (cliutil.Obs{TraceSample: *traceEvery, DebugAddr: *debugAddr, Addr: *addr}).Validate(); err != nil {
		log.Fatal(err)
	}
	if *ingestBatch < 1 {
		log.Fatal("-ingest-batch must be >= 1")
	}
	objectives := make([]obs.Objective, 0, len(sloSpecs))
	for _, spec := range sloSpecs {
		o, err := obs.ParseSLO(spec)
		if err != nil {
			log.Fatal(err)
		}
		objectives = append(objectives, o)
	}
	if *sloFile != "" {
		content, err := os.ReadFile(*sloFile)
		if err != nil {
			log.Fatal(err)
		}
		fromFile, err := obs.ParseSLOFile(string(content))
		if err != nil {
			log.Fatalf("%s: %v", *sloFile, err)
		}
		objectives = append(objectives, fromFile...)
	}
	if len(objectives) > 0 && (*sloEvery <= 0 || *sloFast <= 0 || *sloSlow < *sloFast) {
		log.Fatal("-slo-interval and -slo-fast must be positive, -slo-slow >= -slo-fast")
	}

	prof, err := dataset.ProfileByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	data, err := dataset.Generate(prof, dataset.Options{
		Scale: *scale, RepoRatio: *eta, Seed: *seed,
		MissingRate: 0.3, MissingAttrs: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	kws := data.Keywords
	if *keywords != "" {
		kws = strings.Split(*keywords, ",")
	}
	log.Printf("offline phase: dataset %s, repository %d tuples, keywords %v", prof.Name, data.Repo.Len(), kws)
	sh, err := core.Prepare(data.Repo, core.DefaultPrepareConfig(kws))
	if err != nil {
		log.Fatal(err)
	}

	// root is the durability directory: written with -wal-dir, tailed with
	// -follow (the flags are exclusive).
	root := *walDir
	if root == "" {
		root = *follow
	}
	var ckpt *snapshot.Checkpoint
	ckptPath := ""
	if *restore != "" {
		ckpt, err = snapshot.ReadFile(*restore)
		if err != nil {
			log.Fatal(err)
		}
		ckptPath = *restore
	} else if root != "" {
		// Auto-recovery: the newest snapshot under the durability root seeds
		// both the engine and the replay ring's base; the WAL suffix past its
		// watermark is replayed below, before the listener starts. A follower
		// boots from the tailed writer's root the same way, and tails the WAL
		// past the watermark.
		ckptPath, ckpt, err = engine.LatestCheckpoint(root)
		if err != nil {
			log.Fatal(err)
		}
	}
	if ckpt != nil {
		log.Printf("restoring %s: watermark %d, %d residents, %d live pairs (captured at K=%d)",
			ckptPath, ckpt.Seq, len(ckpt.Residents), len(ckpt.Pairs), ckpt.Shards)
	}

	ringBase := int64(0)
	if ckpt != nil {
		ringBase = ckpt.Seq
	}
	srv := newServer(sh, *replayCap, ringBase, *ckptDir)
	srv.limiter = newRateLimiter(*rateLimit, *rateBurst)
	srv.streams = *streams
	srv.replayDepth = *replayDep
	srv.ingestBatch = *ingestBatch
	jr := obs.DefaultJournal()

	// The flight recorder and its trigger paths (panic crash output, SIGQUIT)
	// arm before the engine opens, so even a crash during recovery replay
	// leaves a bundle behind. The Traces/Stats callbacks gate on readiness —
	// the engine may not exist yet when a dump fires.
	flight := &obs.Flight{
		Dir: *flightDir, Version: version,
		Registry: obs.Default(), Journal: jr,
		Traces: func() any {
			if !srv.ready.Load() {
				return nil
			}
			return srv.eng.Traces()
		},
		Stats: func() any {
			if !srv.ready.Load() {
				return nil
			}
			return srv.eng.Stats()
		},
	}
	srv.flight = flight
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			log.Fatal(err)
		}
		crashFile, err := os.Create(filepath.Join(*flightDir, "crash.txt"))
		if err != nil {
			log.Fatal(err)
		}
		// The runtime dups the fd, so the handle can close immediately.
		if err := debug.SetCrashOutput(crashFile, debug.CrashOptions{}); err != nil {
			log.Fatal(err)
		}
		crashFile.Close()
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			if path, err := flight.Dump("sigquit"); err != nil {
				log.Printf("flight dump failed: %v", err)
			} else {
				log.Printf("flight bundle written to %s", path)
			}
			os.Exit(2)
		}()
	}

	// Service-level objectives bind to metric families lazily, so the SLO
	// engine can start before the engine registers them.
	if len(objectives) > 0 {
		srv.slo = obs.NewSLOEngine(obs.Default(), jr, objectives, *sloEvery, *sloFast, *sloSlow)
		srv.slo.Run()
		log.Printf("slo: %d objectives, evaluated every %s over %s/%s windows",
			srv.slo.Objectives(), *sloEvery, *sloFast, *sloSlow)
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux(srv)}
		go func() {
			log.Printf("debug listener on %s (pprof, expvar, metrics)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	// The listener comes up before the engine: probes, /metrics, /events,
	// /slo, and /debug/dump answer during a long recovery replay, while
	// engine-backed endpoints 503 with the startup phase until ready flips.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.routes()}
	go func() {
		log.Printf("listening on %s (engine starting)", ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	engCfg := engine.Config{
		Core: core.Config{
			Keywords: kws, Gamma: *rho * float64(sh.Schema.D()), Alpha: *alpha,
			WindowSize: *w, Streams: *streams,
		},
		Shards:      *shards,
		QueueDepth:  *queue,
		OnResult:    srv.onResult,
		TraceSample: *traceEvery,
	}
	// One durability handle carries the directory from boot to Close: a
	// follower's flips to writing on promotion (the -checkpoint-* flags arm
	// its checkpointer then).
	dcfg := engine.DurableConfig{
		Dir: root, CheckpointInterval: *ckptEvery, KeepCheckpoints: *ckptKeep,
		DeltaEvery: *ckptDelta,
		Checkpoint: ckpt, CheckpointPath: ckptPath, Logf: log.Printf,
	}
	var eng *engine.Engine
	var dur *engine.Durable
	switch {
	case *follow != "":
		srv.readyReason.Store("catching up")
		dur, err = engine.OpenFollower(sh, engCfg, dcfg)
		if err != nil {
			log.Fatal(err)
		}
		eng = dur.Eng
		obs.Default().GaugeFunc("terids_follower_lag",
			"Durable writer arrivals the follower's merged output still trails by.", nil,
			func() float64 { return float64(dur.Lag()) })
		log.Printf("follower: tailing %s from seq %d (writer alive: %v)",
			*follow, dur.ResumeSeq(), dur.WriterAlive())
	case *walDir != "":
		srv.readyReason.Store("recovering")
		recoverStart := time.Now()
		dur, err = engine.OpenDurable(sh, engCfg, dcfg)
		if err != nil {
			log.Fatal(err)
		}
		eng = dur.Eng
		jr.Record("recovery", "durable state recovered", map[string]any{
			"wal_dir": *walDir, "checkpoint": ckptPath,
			"resume_seq": dur.ResumeSeq(), "replayed": dur.Replayed(),
			"duration_ms": float64(time.Since(recoverStart).Microseconds()) / 1000,
		})
		log.Printf("durable: wal at %s, resumed at seq %d (%d arrivals replayed)",
			*walDir, dur.ResumeSeq(), dur.Replayed())
	default:
		eng, err = engine.NewFromSnapshot(sh, engCfg, ckpt) // nil ckpt: fresh engine
	}
	if err != nil {
		log.Fatal(err)
	}
	srv.promoteMu.Lock()
	srv.eng, srv.dur = eng, dur
	srv.promoteMu.Unlock()
	obs.Default().Gauge("terids_build_info",
		"Build and topology identity; the value is always 1.",
		obs.Labels{
			"version":    version,
			"go_version": runtime.Version(),
			"shards":     strconv.Itoa(eng.Stats().Shards),
		}).Set(1)

	if dur == nil || !dur.Following() {
		// Recovery replay (if any) is done and the engine is attached: ready.
		srv.readyReason.Store("")
		srv.ready.Store(true)
		jr.Record("serving", "listener ready for traffic", map[string]any{
			"addr": ln.Addr().String(), "shards": eng.Stats().Shards,
		})
		log.Printf("serving on %s (%d shards, schema %v)", ln.Addr(), eng.Stats().Shards, sh.Schema.Attrs())
	} else {
		// A follower flips ready once its first tail pass drains — how long
		// that takes depends on the writer, so a poller watches for it. A
		// promotion that lands first flips ready itself and the poller exits.
		log.Printf("serving reads on %s once caught up (%d shards, schema %v)",
			ln.Addr(), eng.Stats().Shards, sh.Schema.Attrs())
		go func() {
			tick := time.NewTicker(25 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-srv.done:
					return
				case <-tick.C:
				}
				if srv.ready.Load() {
					return // promoted before catching up; promote() flipped it
				}
				if dur.CaughtUp() {
					srv.readyReason.Store("")
					srv.ready.Store(true)
					jr.Record("serving", "follower caught up to the writer frontier", map[string]any{
						"addr": ln.Addr().String(), "applied_seq": eng.Completed(),
					})
					log.Printf("follower caught up at seq %d; serving reads on %s",
						eng.Completed(), ln.Addr())
					return
				}
			}
		}()
		if *promoteLoss > 0 {
			go autoPromote(srv, *promoteLoss)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	srv.readyReason.Store("shutting down")
	srv.ready.Store(false)
	if srv.slo != nil {
		srv.slo.Stop()
	}
	close(srv.done)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	// Close drains every accepted arrival through the pipeline, so the exit
	// checkpoint below captures a consistent final state. A writing handle
	// also writes one last snapshot, making the next boot replay-free; a
	// follower that was never promoted just stops tailing and drains.
	if dur != nil {
		if err := dur.Close(true); err != nil {
			log.Fatalf("durable shutdown: %v", err)
		}
	} else if err := eng.Close(); err != nil {
		log.Fatalf("engine: %v", err)
	}
	if *ckptOnExit != "" {
		c, err := eng.Checkpoint()
		if err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		if err := snapshot.WriteFile(*ckptOnExit, c); err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		log.Printf("wrote final checkpoint %s (watermark %d, %d residents, %d live pairs)",
			*ckptOnExit, c.Seq, len(c.Residents), len(c.Pairs))
	}
}

// autoPromote watches the writer's liveness lock and promotes the follower
// once the lock has been free for the configured grace period — the
// automatic counterpart of POST /promote. A failed attempt (the writer came
// back and re-took the lock, or the takeover itself errored) restarts the
// grace clock and the replica keeps following.
func autoPromote(srv *server, grace time.Duration) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	var downSince time.Time
	for {
		select {
		case <-srv.done:
			return
		case <-tick.C:
		}
		if !srv.dur.Following() {
			return
		}
		if srv.dur.WriterAlive() {
			downSince = time.Time{}
			continue
		}
		if downSince.IsZero() {
			downSince = time.Now()
		}
		if time.Since(downSince) < grace {
			continue
		}
		srv.promoteMu.Lock()
		var err error
		if srv.dur.Following() {
			err = srv.promote("writer-loss")
		}
		srv.promoteMu.Unlock()
		if err != nil {
			log.Printf("auto-promote: %v (still following)", err)
			downSince = time.Time{}
			continue
		}
		log.Printf("writer lock free for %s: promoted to writer at seq %d",
			grace, srv.dur.ResumeSeq())
		return
	}
}
