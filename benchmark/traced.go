package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"terids/internal/core"
	"terids/internal/tuple"
)

// embeddedFrac is the share of a measured run's arrival counts the traced
// run's embedded end-to-end pass sends: enough for serve.* numbers, short
// enough to leave the run's time to the in-process passes.
const embeddedFrac = 0.3

// traceChunk is how many arrivals each in-process pass advances before the
// next pass takes its turn.
const traceChunk = 250

// imputeSpans and resolveSpans group pass B's span names into the two
// halves of the operator, for the layer-share check.
var (
	imputeSpans  = []string{"cddindex.applicable", "drindex.matching", "impute.distribution", "tuple.from_complete"}
	resolveSpans = []string{"prune.profile", "grid.candidates", "prune.cascade", "prune.refine", "grid.insert", "grid.remove", "stream.push"}
)

// runTraced is -trace 1: the per-layer metrics. The same generated arrivals
// are replayed in-process through each layer's public functions with a
// span around every call; a short end-to-end pass against a real server
// fills in the serve.* numbers.
func runTraced(bin, scratch string, in *input, seed int64, seconds int) (*report, error) {
	w := in.w
	ms := newMetricSet(perLayerUnits)
	rep := &report{}

	// Offline phase, timed call by call, then the real thing for the state
	// every pass below runs against.
	off, err := runOffline(in.server.Repo, in.server.Keywords)
	if err != nil {
		return nil, err
	}
	sh, err := core.Prepare(in.server.Repo, core.DefaultPrepareConfig(in.server.Keywords))
	if err != nil {
		return nil, err
	}
	cfg := serverConfig(w, sh, in.server.Keywords)
	step, err := core.NewStep(sh, cfg)
	if err != nil {
		return nil, err
	}
	n := max(w.TracePerSecond*seconds, walBatches8*8+walBatches64*64)
	n = (n + traceChunk - 1) / traceChunk * traceChunk
	recs, err := in.records(sh.Schema, 0, n)
	if err != nil {
		return nil, err
	}

	// Single-threaded baseline and the two traced passes over the same
	// arrivals, taking turns chunk by chunk: the box's speed drifts by tens
	// of percent over seconds, and numbers that are compared with each
	// other (reconcile, tracing overhead) must have seen the same drift.
	proc, err := newProcessorRun(sh, cfg, n)
	if err != nil {
		return nil, err
	}
	stA, err := newTracedState(step, n, 8)
	if err != nil {
		return nil, err
	}
	stB, err := newTracedState(step, n, 48)
	if err != nil {
		return nil, err
	}
	pA, pB := &passA{tracedState: stA}, &passB{tracedState: stB}
	chunks := n / traceChunk
	for c := 0; c < chunks; c++ {
		part := recs[c*traceChunk : (c+1)*traceChunk]
		for _, advance := range []func([]*tuple.Record) error{proc.advance, pA.advance, pB.advance} {
			if err := advance(part); err != nil {
				return nil, err
			}
		}
	}
	recA, recB, cnt := stA.rec, stB.rec, &pB.n
	rep.Attempted = n
	procPairs := proc.pairs()
	for _, cmp := range []struct {
		name string
		got  [][]pairOut
	}{{"pass A", stA.out}, {"pass B", stB.out}} {
		if bad, first := diffPairs(procPairs, cmp.got); bad > 0 {
			rep.Failed += bad
			fmt.Fprintf(os.Stderr, "benchmark: %s differs from core.Processor on %d arrivals; first: %s\n", cmp.name, bad, first)
		}
	}
	la, lb := selfTimes(recA.spans), selfTimes(recB.spans)
	perArrUs := func(lt layerTime) float64 { return float64(lt.TotalNs) / float64(n) / 1e3 }

	ms.set("tokens.jaccard_ns", runJaccard(in, sh.Repo, recs, seed))

	ms.set("cddindex.applicable_us", lb["cddindex.applicable"].meanUs())
	ms.set("cddindex.verified_ratio", ratio(cnt.CDDRules, cnt.CDDVerified))
	ms.set("drindex.matching_us", lb["drindex.matching"].meanUs())
	ms.set("drindex.match_ratio", ratio(cnt.DRMatched, cnt.DRVerified))
	ms.set("drindex.nodes_pruned_ratio", ratio(cnt.DRNodesPruned, cnt.DRNodesVisited))
	ms.set("impute.distribution_us", lb["impute.distribution"].meanUs())
	ms.set("impute.candidates_per_attr", ratio(cnt.DistCands, cnt.DistCalls))
	ms.set("prune.profile_us", lb["prune.profile"].meanUs())
	ms.set("prune.refine_us", lb["prune.refine"].meanUs())
	ms.set("prune.refine_pairs_checked", ratio(cnt.RefinePairsChecked, cnt.RefineCalls))
	ms.set("prune.cascade_survivor_ratio", ratio(cnt.Refined, cnt.Considered))
	ms.set("grid.candidates_us", lb["grid.candidates"].meanUs())
	ms.set("grid.cells_pruned_ratio", ratio(cnt.GridCellsPruned, cnt.GridCellsVisited))
	ms.set("grid.emit_ratio", ratio(cnt.GridEmitted, cnt.GridResidents))
	ms.set("grid.maintain_us", perArrUs(lb["grid.insert"])+perArrUs(lb["grid.remove"]))
	ms.set("stream.push_us", lb["stream.push"].meanUs())

	ms.set("core.impute_us", la["core.impute"].meanUs())
	ms.set("core.resolve_us", la["core.resolve"].meanUs())
	procTps := float64(n) / proc.wall().Seconds()
	ms.set("core.processor_tps", procTps)
	ms.set("core.allocs_per_arrival", float64(proc.Allocs)/float64(n))
	ms.set("core.bytes_per_arrival", float64(proc.Bytes)/float64(n))
	// Everything pass B timed except the root span's own loop overhead,
	// against what the untraced operator took for the same arrivals.
	var layerSelf, imputeSelf, resolveSelf int64
	for name, lt := range lb {
		if name != "arrival" {
			layerSelf += lt.SelfNs
		}
	}
	for _, name := range imputeSpans {
		imputeSelf += lb[name].SelfNs
	}
	for _, name := range resolveSpans {
		resolveSelf += lb[name].SelfNs
	}
	// Both ratios are medians over chunks of the two passes' times for the
	// same arrivals, taken back to back.
	selfB := layerSelfByChunk(recB.spans, traceChunk, chunks)
	wallA := rootByChunk(recA.spans, traceChunk, chunks)
	reconciles := make([]float64, chunks)
	overheads := make([]float64, chunks)
	for c := range reconciles {
		reconciles[c] = selfB[c].Seconds() / proc.ChunkWall[c].Seconds()
		overheads[c] = wallA[c].Seconds() / proc.ChunkWall[c].Seconds()
	}
	reconcile := median(reconciles)
	ms.set("core.reconcile_ratio", reconcile)
	ms.set("trace.overhead_ratio", median(overheads))

	// The sharded engine, in-process.
	ec, err := runEngineClosed(sh, cfg, recs)
	if err != nil {
		return nil, err
	}
	if bad, first := diffPairs(procPairs, ec.Pairs); bad > 0 {
		rep.Failed += bad
		fmt.Fprintf(os.Stderr, "benchmark: engine differs from core.Processor on %d arrivals; first: %s\n", bad, first)
	}
	openP50, err := runEngineOpen(sh, cfg, recs, w.OpenBatch, float64(w.OpenRate))
	if err != nil {
		return nil, err
	}
	rc, err := runRecovery(filepath.Join(scratch, "recovery"), sh, cfg, recs)
	if err != nil {
		return nil, err
	}
	ms.set("engine.tps", ec.Tps)
	ms.set("engine.speedup_vs_processor", ec.Tps/procTps)
	ms.set("engine.submit_wait_us", ec.SubmitWaitUs)
	ms.set("engine.submit_to_result_p50_us", openP50)
	ms.set("engine.shard_imbalance", ec.Imbalance)
	ms.set("engine.checkpoint_barrier_ms", ec.BarrierMs)
	ms.set("engine.recovery_replay_tps", rc.EngineReplayTps)

	wc, err := runWALCommit(filepath.Join(scratch, "walcommit"), recs)
	if err != nil {
		return nil, err
	}
	ms.set("wal.commit_us_b8", wc.B8Us)
	ms.set("wal.commit_us_b64", wc.B64Us)
	ms.set("wal.bytes_per_entry", wc.BytesPerEntry)
	ms.set("wal.replay_tps", rc.WALReplayTps)

	sc, err := runSnapshot(ec.Base, ec.Cur)
	if err != nil {
		return nil, err
	}
	ms.set("snapshot.encode_ms", sc.EncodeMs)
	ms.set("snapshot.decode_ms", sc.DecodeMs)
	ms.set("snapshot.bytes", float64(sc.Bytes))
	ms.set("snapshot.delta_bytes_ratio", sc.DeltaRatio)

	ms.set("offline.pivot_s", off.PivotS)
	ms.set("offline.detect_s", off.DetectS)
	ms.set("offline.index_s", off.IndexS)

	// The embedded end-to-end pass: one boot, fewer rounds, no restart.
	e2e, err := runE2E(bin, scratch, in, e2eOptions{Seconds: seconds, Frac: embeddedFrac})
	if err != nil {
		return nil, err
	}
	rep.Attempted += e2e.Attempted
	rep.Failed += e2e.Failed
	ms.set("serve.latency_p99_ms", e2e.LatencyP99Ms)
	ms.set("serve.ingest_ack_p50_ms", e2e.AckP50Ms)
	ms.set("serve.overhead_us_per_arrival", 1e6/e2e.ThroughputTps.Median-1e6/ec.Tps)
	ms.set("serve.allocs_per_arrival", e2e.AllocsPerArr)
	ms.set("serve.gc_pause_ms", e2e.GCPauseMs)
	ms.set("serve.peak_rss_mb", e2e.PeakRSSMB)
	ms.set("serve.sched_lag_p99_ms", e2e.SchedLagP99Ms)

	// The checks the design rests on, beyond pass equality.
	if reconcile < 0.8 || reconcile > 1.2 {
		rep.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: core.reconcile_ratio %.3f outside 0.8-1.2: the layer spans do not add up to the operator\n", reconcile)
	}
	if w.Xi == 0 && cnt.CDDCalls+cnt.DRCalls+cnt.DistCalls != 0 {
		rep.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: %d imputation calls on a workload of complete tuples\n", cnt.CDDCalls+cnt.DRCalls+cnt.DistCalls)
	}
	rep.Correct = rep.Failed == 0
	m, err := ms.complete()
	if err != nil {
		return nil, err
	}
	rep.Metrics = m

	path, err := writeTrace(w, seed, recA, recB)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s traced: %d arrivals per in-process pass; %d spans (pass A) + %d spans (pass B); trace file %s\n",
		w.Name, n, len(recA.spans), len(recB.spans), path)
	fmt.Printf("pass B operator self time: imputation %.1f%%, resolution %.1f%% (of %.3f s; untraced core.Processor %.3f s)\n",
		100*float64(imputeSelf)/float64(layerSelf), 100*float64(resolveSelf)/float64(layerSelf),
		float64(layerSelf)/1e9, proc.wall().Seconds())
	fmt.Printf("%-28s %10s %14s %14s\n", "pass B span", "calls", "total ms", "self ms")
	for _, name := range slices.Sorted(maps.Keys(lb)) {
		lt := lb[name]
		fmt.Printf("%-28s %10d %14.3f %14.3f\n", name, lt.Calls, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6)
	}
	fmt.Printf("%-32s %16s %s\n", "per-layer metric", "value", "unit")
	for _, name := range slices.Sorted(maps.Keys(m)) {
		if name == "wal.commit_us_b8" && !w.WAL {
			// The report line below still carries the micro-measurement: the
			// output contract wants a number for every metric.
			fmt.Printf("%-32s %16s    (this workload's server has no WAL)\n", name, "n/a")
			continue
		}
		fmt.Printf("%-32s %16.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	return rep, nil
}
