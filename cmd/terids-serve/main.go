// Command terids-serve exposes the sharded TER-iDS engine as an HTTP ingest
// server: incomplete tuples are POSTed as NDJSON, flow through the
// concurrent impute → shard → merge pipeline, and matching pairs stream back
// out as they are detected.
//
// The offline state (repository, rules, indexes) is bootstrapped from one of
// the built-in synthetic dataset profiles, of which only the repository R is
// drawn; the online phase then accepts arbitrary tuples over that profile's
// schema.
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
//	GET  /stats     engine + server counters as JSON, including per-shard
//	                residents and the imbalance ratio.
//	GET  /metrics   Prometheus text exposition: per-stage latency histograms
//	                (impute, route, shard ER, merge, WAL, checkpoint, deep
//	                replay) with p50/p95/p99 quantile gauges, plus counters.
//	GET  /trace     sampled arrival timelines as NDJSON (-trace-sample N
//	                records one in N arrivals' full per-stage breakdown).
//	GET  /healthz   liveness (503 once the pipeline has failed or shutdown
//	                has begun; 200 while still starting or recovering).
//	GET  /readyz    readiness (503 with the phase as the body — "starting",
//	                "recovering", "catching up", "shutting down" — until
//	                recovery replay or follower catch-up finishes and the
//	                engine is serving traffic, or with the error once the
//	                pipeline has failed).
//	GET  /events    the lifecycle event journal as NDJSON — checkpoints,
//	                WAL rotation/truncation, deep replays, throttle
//	                episodes, SLO transitions, recovery — oldest first;
//	                ?from=seq resumes from a cursor.
//	GET  /slo       per-objective service-level status as JSON: current
//	                value, fast/slow burn rates, remaining error budget, and
//	                ok/warn/breach state (requires -slo or -slo-file).
//	POST /debug/dump  write a flight-recorder bundle now and return its path
//	                (requires -flight-dir).
//	POST /promote   flip a follower replica (-follow) to the writer: seal
//	                at the WAL frontier, replay the un-tailed remainder,
//	                attach the log, reopen /ingest. 409 while
//	                the old writer still holds the liveness lock.
//
// The server reads one validated config (every flag range is checked before
// R is drawn) and moves through one lifecycle phase, forward
// only: a writer goes starting → recovering (with -wal-dir) → writing; a
// follower goes starting → catching up → following → writing, the last
// step being promotion, which may also come straight from catching up; any
// phase ends in shutting down, and a promotion or catch-up that lands after
// shutdown began changes nothing. A follower runs one background loop: it
// moves catching up → following once the first tail pass drains, promotes
// after the -promote-on-writer-loss grace when that is set, and exits on
// promotion or shutdown. The HTTP listener starts before the
// engine: during a long recovery replay the probes, /metrics, and /events
// already answer, while engine-backed endpoints return 503 with the phase as
// the body until it is following or writing.
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
// stream's topic mix and there is nothing to tune. K is fixed at boot:
// restart with another -shards, or boot a follower with it and promote it
// (checkpoints carry K, so -shards 0 recovery resumes at it).
//
// Read-path scale-out: -follow <dir> boots the process as a read-only
// follower replica over another terids-serve's -wal-dir. Writer and
// follower hold the same kind of handle on the directory, one
// engine.Durable; the follower's is in following mode. It restores the
// newest checkpoint there, then continuously tails the writer's WAL, so its
// /results, /stats, /metrics, /slo, and /events are byte-identical to the
// writer's, one poll interval behind (terids_follower_lag gauges the gap).
// That covers /results?from= cursors below its ring too: deep replay reads
// the WAL through the tailer. /ingest answers 503 on a follower. When the
// writer's checkpointer truncates the WAL below the follower's cursor, the follower applies the delta-checkpoint chain onto
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
	"runtime/debug"
	"strings"
	"syscall"
	"time"

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

	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}

	sh, kws, err := offline(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The checkpoint to boot from: -restore's file, or the newest snapshot
	// under the durability root — the writer's own (-wal-dir), or the tailed
	// writer's (-follow). It seeds both the engine and the replay ring's
	// base; the WAL suffix past its watermark is replayed or tailed by open.
	var ckpt *snapshot.Checkpoint
	ckptPath := cfg.restore
	if cfg.restore != "" {
		ckpt, err = snapshot.ReadFile(cfg.restore)
	} else if cfg.root() != "" {
		ckptPath, ckpt, err = engine.LatestCheckpoint(cfg.root())
	}
	if err != nil {
		log.Fatal(err)
	}
	ringBase := int64(0)
	if ckpt != nil {
		ringBase = ckpt.Seq
		log.Printf("restoring %s: watermark %d, %d residents, %d live pairs (captured at K=%d)",
			ckptPath, ckpt.Seq, len(ckpt.Residents), len(ckpt.Pairs), ckpt.Shards)
	}
	srv := newServer(sh, cfg, ringBase)

	// The flight recorder and its trigger paths (panic crash output, SIGQUIT)
	// arm before the engine opens, so even a crash during recovery replay
	// leaves a bundle behind. The Traces/Stats callbacks gate on a serving
	// phase — the engine may not exist yet when a dump fires.
	flight := &obs.Flight{
		Dir: cfg.flightDir, Version: version,
		Registry: srv.reg, Journal: srv.jr,
		Traces: func() any {
			if !srv.currentPhase().serving() {
				return nil
			}
			return srv.eng.Traces()
		},
		Stats: func() any {
			if !srv.currentPhase().serving() {
				return nil
			}
			return srv.eng.Stats()
		},
	}
	srv.flight = flight
	if cfg.flightDir != "" {
		if err := os.MkdirAll(cfg.flightDir, 0o755); err != nil {
			log.Fatal(err)
		}
		crashFile, err := os.Create(filepath.Join(cfg.flightDir, "crash.txt"))
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
	if len(cfg.objectives) > 0 {
		srv.slo = obs.NewSLOEngine(srv.reg, srv.jr, cfg.objectives, cfg.sloInterval, cfg.sloFast, cfg.sloSlow)
		srv.slo.Run()
		log.Printf("slo: %d objectives, evaluated every %s over %s/%s windows",
			srv.slo.Objectives(), cfg.sloInterval, cfg.sloFast, cfg.sloSlow)
	}

	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		debugSrv = &http.Server{Addr: cfg.debugAddr, Handler: obs.DebugMux(srv.reg)}
		go func() {
			log.Printf("debug listener on %s (pprof, expvar, metrics)", cfg.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	// The listener comes up before the engine: probes, /metrics, /events,
	// /slo, and /debug/dump answer during a long recovery replay, while
	// engine-backed endpoints 503 with the phase until it is serving.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatal(err)
	}
	srv.addr = ln.Addr().String()
	httpSrv := &http.Server{Handler: srv.routes()}
	go func() {
		log.Printf("listening on %s (engine starting)", ln.Addr())
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	if err := srv.open(sh, kws, ckptPath, ckpt); err != nil {
		log.Fatal(err)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	srv.shutdown()
	if srv.slo != nil {
		srv.slo.Stop()
	}
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
	if srv.dur != nil {
		if err := srv.dur.Close(true); err != nil {
			log.Fatalf("durable shutdown: %v", err)
		}
	} else if err := srv.eng.Close(); err != nil {
		log.Fatalf("engine: %v", err)
	}
	if cfg.ckptOnExit != "" {
		c, err := srv.eng.Checkpoint()
		if err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		if err := snapshot.WriteFile(cfg.ckptOnExit, c); err != nil {
			log.Fatalf("final checkpoint: %v", err)
		}
		log.Printf("wrote final checkpoint %s (watermark %d, %d residents, %d live pairs)",
			cfg.ckptOnExit, c.Seq, len(c.Residents), len(c.Pairs))
	}
}

// offline draws the repository R of the -dataset profile and runs
// Algorithm 1's offline phase over it, with the profile's topics as the
// keyword set K unless -keywords overrides them. R is all that phase reads,
// so no arrival stream is generated. Where the time went (draw, pivot
// selection, rule detection, index build) goes to the log and to the
// journal as an "offline" event.
func offline(cfg config) (*core.Shared, []string, error) {
	prof, err := dataset.ProfileByName(cfg.dataset)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	repo, err := dataset.GenerateRepo(prof, dataset.Options{
		Scale: cfg.scale, RepoRatio: cfg.eta, Seed: cfg.seed,
		MissingRate: 0.3, MissingAttrs: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	drawTime := time.Since(start)
	kws := append([]string(nil), prof.Topics...)
	if cfg.keywords != "" {
		kws = strings.Split(cfg.keywords, ",")
	}
	sh, err := core.Prepare(repo, core.DefaultPrepareConfig(kws))
	if err != nil {
		return nil, nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	log.Printf("offline phase: dataset %s, repository %d tuples, keywords %v; draw %.1f ms, pivot %.1f ms, detect %.1f ms, index %.1f ms",
		prof.Name, repo.Len(), kws, ms(drawTime), ms(sh.PivotTime), ms(sh.DetectTime), ms(sh.IndexTime))
	obs.DefaultJournal().Record("offline", "offline phase done", map[string]any{
		"dataset": prof.Name, "repository": repo.Len(),
		"draw_ms": ms(drawTime), "pivot_ms": ms(sh.PivotTime),
		"detect_ms": ms(sh.DetectTime), "index_ms": ms(sh.IndexTime),
	})
	return sh, kws, nil
}
