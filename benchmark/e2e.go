package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"terids/internal/core"
)

// maxSchedLag is the generator-hygiene limit: an open-loop slice in which
// a tenth of the departures left later than this says more about the
// generator than about the server, and its latency is not used. The limit
// is on p90, not p99: with one writer connection a batch cannot depart
// before the previous reply, and on the seed commit the reply takes longer
// than the batch interval 1-2% of the time, so p99 measures the server's
// push-back, not the generator (it is reported, ungated, as
// serve.sched_lag_p99_ms).
const maxSchedLag = time.Millisecond

// drainTimeout bounds every wait for results; the slowest phase on the seed
// commit drains in well under a tenth of it.
const drainTimeout = 90 * time.Second

// e2eOptions selects between the measured run (-trace 0) and the shorter
// pass the traced run embeds to fill in the serve.* per-layer numbers.
type e2eOptions struct {
	// Seconds is the time the rounds may take; Frac scales it.
	Seconds int
	Frac    float64
	// ProbeEvery, when positive, boots a throwaway second server after every
	// ProbeEvery-th round (the server under test is drained and idle then)
	// and times its exec → /readyz, so set-up and recovery are sampled over
	// the whole run and not in one patch of the box's weather. On a workload
	// with a WAL the probes alternate: a cold boot (a setup_s sample), then a
	// boot on a crash image of the server under test, taken early in the run
	// (a recovery_s sample). Without one they are all cold boots.
	ProbeEvery int
}

// roundResult is what one round measured.
type roundResult struct {
	// Tps is the closed-loop burst: arrivals over first POST → last result.
	Tps float64
	// P50Ms, CPUUs and LagP90Ms are the open-loop slice: median latency from
	// scheduled departure to result read, server CPU per arrival, and how
	// late the generator's departures ran.
	P50Ms, CPUUs, LagP90Ms float64
	// BurstStolen and SliceStolen are the clock ticks the hypervisor took
	// from this machine's CPUs during the burst and during the slice.
	BurstStolen, SliceStolen int64
}

// e2eResult is everything one end-to-end run measured.
type e2eResult struct {
	Counts    counts
	Attempted int
	// Failed = refused ingest lines + result-sequence errors + rejected
	// arrivals + verify-lap mismatches + arrivals a recovery did not bring
	// back.
	Failed      int
	Refused     int
	SeqErrors   int
	Rejected    int
	Mismatches  int
	Unrecovered int
	// Invalid, when non-empty, says why the open-loop latency must not be
	// trusted (generator ran late, or the rate was past capacity). Such a
	// run is reported as not correct.
	Invalid string

	Rounds []roundResult
	// RoundsS is how long the rounds and their probes took, against the
	// -seconds they were given.
	RoundsS       float64
	ThroughputTps windowed
	LatencyP50Ms  windowed
	CPUUsPerArr   windowed
	// SetupS and RecoveryS are the probes' times, RefS the reference work's
	// (hostref.go), timed after every round; the *Stolen beside each are the
	// clock ticks the hypervisor took meanwhile.
	SetupS, RecoveryS, RefS                []float64
	SetupStolen, RecoveryStolen, RefStolen []int64
	LatencyP99Ms                           float64
	LatencySamples                         int
	AckP50Ms                               float64
	SchedLagP99Ms                          float64
	AllocsPerArr                           float64
	GCPauseMs                              float64
	PeakRSSMB                              float64
}

// setupS is the run's setup_s: the median set-up probe the hypervisor left
// alone.
func (r *e2eResult) setupS() float64 { return quietMedian(r.SetupS, r.SetupStolen) }

// recoveryS is the run's recovery_s: the median undisturbed recovery probe.
// A workload without a WAL has no recovery probes, because a crashed
// volatile server restarts as a cold boot; the output contract wants every
// metric on every run, so there the value is setup_s again.
func (r *e2eResult) recoveryS() float64 {
	if len(r.RecoveryS) == 0 {
		return r.setupS()
	}
	return quietMedian(r.RecoveryS, r.RecoveryStolen)
}

// hostFactor is how slowly the host ran this machine during the run,
// against the reference box at its nominal speed: the median undisturbed
// sample of the reference work over its nominal time. Every end-to-end number is reported
// as measured x this factor (rates) or / this factor (times and costs).
func (r *e2eResult) hostFactor() float64 { return quietMedian(r.RefS, r.RefStolen) / refNominalS }

// runE2E boots a real terids-serve, drives it through the verify lap and
// the rounds, and checks what came back.
func runE2E(bin, scratch string, in *input, opt e2eOptions) (*e2eResult, error) {
	w := in.w
	c := w.phaseCounts(opt.Seconds, opt.Frac)
	res := &e2eResult{Counts: c, Attempted: c.total(), Rounds: make([]roundResult, c.Rounds)}

	// Every POST body is encoded before anything is timed.
	verifyBodies, err := in.bodies(0, c.Verify, 50)
	if err != nil {
		return nil, err
	}
	burstBodies := make([][][]byte, c.Rounds)
	sliceBodies := make([][][]byte, c.Rounds)
	for k := range burstBodies {
		if burstBodies[k], err = in.bodies(c.burstFrom(k), c.sliceFrom(k), w.ClosedBatch); err != nil {
			return nil, err
		}
		if sliceBodies[k], err = in.bodies(c.sliceFrom(k), c.burstFrom(k+1), w.OpenBatch); err != nil {
			return nil, err
		}
	}

	walDir := filepath.Join(scratch, "wal")
	logPath := filepath.Join(scratch, "serve.log")
	var stolen stolenMeter
	stolen.lap()
	srv, err := startServer(bin, w, walDir, logPath)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	res.SetupS, res.SetupStolen = append(res.SetupS, srv.setup.Seconds()), append(res.SetupStolen, stolen.lap())
	// probe boots a second server beside the idle one under test. A set-up
	// probe is a cold boot, timed to /readyz. A recovery probe boots on a
	// fresh copy of the crash image and is timed until it has merged every
	// arrival in it again.
	crashImage := filepath.Join(scratch, "crash-image")
	imageArrivals := 0
	probe := func(recovery bool) error {
		dir := filepath.Join(scratch, "probe-wal")
		defer os.RemoveAll(dir)
		if recovery {
			if err := os.CopyFS(dir, os.DirFS(crashImage)); err != nil {
				return err
			}
		}
		stolen.lap()
		p, err := startServer(bin, w, dir, filepath.Join(scratch, "probe.log"))
		if err != nil {
			return err
		}
		defer p.kill()
		if !recovery {
			res.SetupS, res.SetupStolen = append(res.SetupS, p.setup.Seconds()), append(res.SetupStolen, stolen.lap())
			return nil
		}
		took, got, err := p.awaitMerged(imageArrivals)
		if err != nil {
			return err
		}
		res.RecoveryS, res.RecoveryStolen = append(res.RecoveryS, took.Seconds()), append(res.RecoveryStolen, stolen.lap())
		// Too many is as wrong as too few.
		res.Unrecovered += max(imageArrivals-got, got-imageArrivals)
		return nil
	}

	gen, err := newGenerator(wallClock{origin: time.Now()}, "http://"+srv.addr, c.total(), c.Verify)
	if err != nil {
		return nil, err
	}
	defer gen.close()

	// Verify lap: also fills the windows, so the rounds see the steady-state
	// resident count from their first arrival.
	if _, err := gen.closedLoop(verifyBodies, 50); err != nil {
		return nil, fmt.Errorf("verify lap: %w", err)
	}
	if err := gen.await(c.Verify, drainTimeout); err != nil {
		return nil, fmt.Errorf("verify lap: %w", err)
	}

	mallocs0, pause0, err := srv.memstats()
	if err != nil {
		return nil, err
	}
	var lat, ack, lag []float64
	ref := newHostRef()
	// backlogs[k][b] is the unanswered arrivals at the departure of round k's
	// b-th open-loop batch.
	backlogs := make([][]int, c.Rounds)
	// The run is sized in rounds, so that a quiet box does the same work every
	// time, and limited in time, so that a slow one gets fewer rounds and not
	// a longer run: no round starts that, at the pace so far, would end past
	// the budget.
	budget := time.Duration(float64(opt.Seconds) * opt.Frac * float64(time.Second))
	loopStart := time.Now()
	for k := range res.Rounds {
		if k >= minRounds && time.Since(loopStart)*time.Duration(k+1)/time.Duration(k) > budget {
			c.Rounds = k
			res.Counts, res.Attempted, res.Rounds = c, c.total(), res.Rounds[:k]
			break
		}
		r := &res.Rounds[k]
		// Closed loop: throughput. A burst is drained before its clock
		// stops (first POST to last result), so its rate is work that
		// really finished in that time — cutting one long burst by
		// result-read times instead lets the tail's catch-up after a stall
		// masquerade as a fast window.
		stolen.lap()
		start, err := gen.closedLoop(burstBodies[k], w.ClosedBatch)
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		if err := gen.await(c.sliceFrom(k), drainTimeout); err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		r.Tps = float64(c.Burst) / (gen.recv[c.sliceFrom(k)-1] - start).Seconds()
		r.BurstStolen = stolen.lap()

		// Open loop: latency at a fixed rate, and what that rate costs in
		// CPU.
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		tr, err := gen.openLoop(sliceBodies[k], w.OpenBatch, float64(w.OpenRate), c.sliceFrom(k))
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		if err := gen.await(c.burstFrom(k+1), drainTimeout); err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		if r.SliceStolen = stolen.lap(); stolen.err != nil {
			return nil, stolen.err
		}
		r.CPUUs = (cpu1 - cpu0) * 1e6 / float64(c.Slice)
		sliceLat := durationsMs(gen.latencies(tr, w.OpenBatch, c.sliceFrom(k)))
		r.P50Ms = median(sliceLat)
		lat = append(lat, sliceLat...)
		sliceLag := make([]float64, len(tr.Sched))
		for b := range tr.Sched {
			ack = append(ack, float64(tr.Ack[b]-tr.Depart[b])/1e6)
			sliceLag[b] = float64(tr.Depart[b]-tr.Sched[b]) / 1e6
		}
		backlogs[k] = tr.Backlog
		res.RefS, res.RefStolen = append(res.RefS, ref.sample()), append(res.RefStolen, stolen.lap())
		r.LagP90Ms = quantile(sliceLag, 0.90)
		lag = append(lag, sliceLag...)

		if opt.ProbeEvery > 0 && (k+1)%opt.ProbeEvery == 0 {
			n := (k + 1) / opt.ProbeEvery
			if n == 1 && w.WAL {
				// The crash image is the WAL directory as it stands when the
				// first probe is due: every accepted arrival is fsynced and
				// nothing is in flight, so the copy is what a SIGKILL now
				// would leave behind. It is taken once, so every recovery
				// probe replays the same log.
				if err := os.CopyFS(crashImage, os.DirFS(walDir)); err != nil {
					return nil, err
				}
				imageArrivals = c.burstFrom(k + 1)
			}
			// Without a WAL a crashed server has no state to recover: every
			// probe of a volatile workload is a set-up probe.
			if err := probe(w.WAL && n%2 == 0); err != nil {
				return nil, err
			}
		}
	}
	res.RoundsS = time.Since(loopStart).Seconds()
	mallocs1, pause1, err := srv.memstats()
	if err != nil {
		return nil, err
	}

	// A window counts only if the hypervisor left this machine its CPUs
	// throughout (on the reference box it takes them away in bursts, and a
	// window that lost even one tick says as much about the host as about
	// the build); a slice's latency, in addition, only if the generator
	// kept its own schedule in it. When no burst, or no slice, was left
	// alone, throughput and CPU cost are extrapolated to zero stolen ticks.
	tps := make([]float64, c.Rounds)
	p50 := make([]float64, c.Rounds)
	cpuUs := make([]float64, c.Rounds)
	burstSecs := make([]float64, c.Rounds)
	burstStolen := make([]int64, c.Rounds)
	sliceStolen := make([]int64, c.Rounds)
	quietBurst := make([]bool, c.Rounds)
	quietSlice := make([]bool, c.Rounds)
	onTime := make([]bool, c.Rounds)
	for k, r := range res.Rounds {
		tps[k], p50[k], cpuUs[k] = r.Tps, r.P50Ms, r.CPUUs
		burstSecs[k] = float64(c.Burst) / r.Tps
		burstStolen[k], sliceStolen[k] = r.BurstStolen, r.SliceStolen
		quietBurst[k] = r.BurstStolen == 0
		quietSlice[k] = r.SliceStolen == 0
		onTime[k] = r.LagP90Ms <= float64(maxSchedLag)/1e6
	}
	if res.ThroughputTps = overWindows(tps, quietBurst); res.ThroughputTps.Usable == 0 {
		res.ThroughputTps.Median = float64(c.Burst) / atZeroSteal(burstSecs, burstStolen)
	}
	var used []bool
	res.LatencyP50Ms, used = latencyOver(p50, quietSlice, onTime)
	if res.CPUUsPerArr = overWindows(cpuUs, quietSlice); res.CPUUsPerArr.Usable == 0 {
		res.CPUUsPerArr.Median = atZeroSteal(cpuUs, sliceStolen)
	}
	res.LatencyP99Ms = quantile(lat, 0.99)
	res.LatencySamples = len(lat)
	res.AckP50Ms = median(ack)
	res.SchedLagP99Ms = quantile(lag, 0.99)
	res.AllocsPerArr = float64(mallocs1-mallocs0) / float64(c.Rounds*c.perRound())
	res.GCPauseMs = float64(pause1-pause0) / 1e6
	switch {
	case res.LatencyP50Ms.Usable == 0:
		res.Invalid = fmt.Sprintf("the generator ran late in every slice: departure lag p90 %.3f ms (limit %s)", quantile(lag, 0.90), maxSchedLag)
	case backlogGrowing(sumOver(backlogs, used), res.LatencyP50Ms.Usable*w.OpenBatch):
		res.Invalid = fmt.Sprintf("backlog grows through the slice: %d/s is past this build's capacity", w.OpenRate)
	}
	if res.PeakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	res.Refused = gen.refused
	res.SeqErrors = int(gen.seqErrors.Load())
	res.Rejected = int(gen.rejected.Load())
	if res.Mismatches, err = verifyAgainstProcessor(in, gen.kept); err != nil {
		return nil, err
	}
	res.Failed = res.Refused + res.SeqErrors + res.Rejected + res.Mismatches + res.Unrecovered
	return res, nil
}

// latencyOver summarizes the slices' median latencies over the slices that
// were both undisturbed and on time, or, when the host disturbed every one
// of those, over the on-time ones, and says which slices those were. A
// stolen tick is the host's doing and only narrows the choice; a late
// generator is the run's own, so when no slice was on time the summary has
// Usable == 0 and the run is invalid.
func latencyOver(p50 []float64, quiet, onTime []bool) (windowed, []bool) {
	both := make([]bool, len(p50))
	for k := range both {
		both[k] = quiet[k] && onTime[k]
	}
	if w := overWindows(p50, both); w.Usable > 0 {
		return w, both
	}
	return overWindows(p50, onTime), onTime
}

// sumOver adds up, position by position, the slices of per that used marks:
// the backlog check looks at the slices the latency was taken from, because
// a slice the hypervisor stalled queues up whatever the build does.
func sumOver(per [][]int, used []bool) []int {
	var sum []int
	for k, use := range used {
		if !use {
			continue
		}
		if sum == nil {
			sum = make([]int, len(per[k]))
		}
		for b, v := range per[k] {
			sum[b] += v
		}
	}
	return sum
}

func durationsMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / 1e6
	}
	return out
}

// resultLine is one /results NDJSON line.
type resultLine struct {
	Seq      int64  `json:"seq"`
	RID      string `json:"rid"`
	Rejected bool   `json:"rejected"`
	Pairs    []struct {
		A    string  `json:"a"`
		B    string  `json:"b"`
		Prob float64 `json:"prob"`
	} `json:"pairs"`
}

// serverConfig is the operator configuration terids-serve runs with when
// given only the flags in workload.serverArgs (its -alpha, -rho and
// -streams defaults).
func serverConfig(w workload, sh *core.Shared, keywords []string) core.Config {
	return core.Config{
		Keywords: keywords, Gamma: 0.5 * float64(sh.Schema.D()), Alpha: 0.5,
		WindowSize: w.W, Streams: 2,
	}
}

// verifyAgainstProcessor re-runs the verify lap through the single-threaded
// core.Processor over core.Prepare of the server's own repository and
// counts the arrivals whose result line differs in any way: sequence, rid,
// or any pair's members, probability or position.
func verifyAgainstProcessor(in *input, lines [][]byte) (mismatches int, err error) {
	sh, err := core.Prepare(in.server.Repo, core.DefaultPrepareConfig(in.server.Keywords))
	if err != nil {
		return 0, err
	}
	proc, err := core.NewProcessor(sh, serverConfig(in.w, sh, in.server.Keywords))
	if err != nil {
		return 0, err
	}
	for i, raw := range lines {
		rec, err := in.record(sh.Schema, i)
		if err != nil {
			return 0, err
		}
		want, err := proc.Advance(rec)
		if err != nil {
			return 0, err
		}
		var got resultLine
		if err := json.Unmarshal(raw, &got); err != nil {
			mismatches++
			continue
		}
		ok := got.Seq == int64(i) && got.RID == rec.RID && !got.Rejected && len(got.Pairs) == len(want)
		for k := 0; ok && k < len(want); k++ {
			ok = got.Pairs[k].A == want[k].A.RID && got.Pairs[k].B == want[k].B.RID && got.Pairs[k].Prob == want[k].Prob
		}
		if !ok {
			mismatches++
		}
	}
	return mismatches, nil
}

// newScratch makes a private directory for one run's WAL and server log
// under the build directory, so the run touches nothing outside the
// checkout.
func newScratch(buildDir string) (string, error) {
	root := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
