// Command benchmark measures terids-serve end to end and every layer under
// it. See README.md for the metric glossary and BENCHMARK.json (repository
// root) for the contract this program prints against.
//
// Run from the repository root:
//
//	bash benchmark/run.sh -workload mixed-default -seed 1 -seconds 26 -trace 0
//	bash benchmark/run.sh -workload mixed-default -seed 1 -seconds 26 -trace 1
//	bash benchmark/run.sh -aa
//
// The last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics; everything above it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed for the arrival order (the server's own -seed is pinned, see README)")
		seconds  = flag.Int("seconds", 26, "run length: the rounds are sized to take this long on a quiet box and stop when it is over")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics against a real terids-serve; 1 = per-layer metrics from the traced in-process replay")
		buildDir = flag.String("build-dir", ".bench_build", "directory for the server binary, WAL scratch and server logs")
		aa       = flag.Bool("aa", false, "run every workload over ten seeds twice and compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *aa {
		if err := runAA(*seconds, *buildDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(*name, *seed, *seconds, *trace, *buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds, trace int, buildDir string) (*report, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	in, err := newInput(w, seed)
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(buildDir)
	if err != nil {
		return nil, err
	}
	scratch, err := newScratch(buildDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	switch trace {
	case 0:
		return runMeasured(bin, scratch, in, seconds)
	case 1:
		return runTraced(bin, scratch, in, seed, seconds)
	}
	return nil, fmt.Errorf("-trace %d: want 0 or 1", trace)
}

// probeEvery spaces the measured run's set-up and recovery samples: a
// throwaway boot after every so many rounds.
const probeEvery = 3

// runMeasured is -trace 0: the end-to-end metrics, tracing off.
func runMeasured(bin, scratch string, in *input, seconds int) (*report, error) {
	r, err := runE2E(bin, scratch, in, e2eOptions{Seconds: seconds, Frac: 1, ProbeEvery: probeEvery})
	if err != nil {
		return nil, err
	}
	printE2E(in.w, r)
	if detail, err := json.Marshal(r); err == nil {
		fmt.Println("detail:", string(detail))
	}
	// What is reported is what was measured, brought to the reference box's
	// nominal speed by the run's host factor (hostref.go): the host moves every one of these
	// numbers together, by more than any bound, and the factor takes that out.
	f := r.hostFactor()
	ms := newMetricSet(endToEndUnits)
	ms.set("throughput_tps", r.ThroughputTps.Median*f)
	ms.set("latency_p50_ms", r.LatencyP50Ms.Median/f)
	ms.set("cpu_us_per_arrival", r.CPUUsPerArr.Median/f)
	ms.set("setup_s", r.setupS()/f)
	ms.set("recovery_s", r.recoveryS()/f)
	m, err := ms.complete()
	if err != nil {
		return nil, err
	}
	// A run whose open-loop latency cannot be trusted is not a measurement:
	// it is reported as not correct, so neither -aa nor a parent-vs-change
	// comparison takes its numbers.
	if r.Invalid != "" {
		fmt.Fprintln(os.Stderr, "benchmark: run invalid:", r.Invalid)
	}
	return &report{Correct: r.Failed == 0 && r.Invalid == "", Attempted: r.Attempted, Failed: r.Failed, Metrics: m}, nil
}

// printE2E writes the human-readable account of an end-to-end run.
func printE2E(w workload, r *e2eResult) {
	f := r.hostFactor()
	win := func(label, unit string, v windowed, reported float64) {
		how := fmt.Sprintf("median of %d usable rounds", v.Usable)
		if v.Usable == 0 {
			how = "no usable round: extrapolated to zero stolen ticks; all rounds'"
		}
		fmt.Printf("%-22s %12.4f %-4s (measured %.4f: %s, quartiles %.4f .. %.4f)\n", label, reported, unit, v.Median, how, v.Q1, v.Q3)
	}
	c := r.Counts
	fmt.Printf("workload %s: verify %d + %d rounds of (closed %d x%d, open %d x%d @ %d/s) in %.1f s\n",
		w.Name, c.Verify, c.Rounds, c.Burst, w.ClosedBatch, c.Slice, w.OpenBatch, w.OpenRate, r.RoundsS)
	fmt.Printf("host factor %.4f: the reference work took %.4f s (median of %d samples), %.3f s is nominal;\n"+
		"the five numbers below are the measured ones brought to nominal speed (rates x factor, times / factor)\n",
		f, f*refNominalS, len(r.RefS), refNominalS)
	win("throughput_tps", "1/s", r.ThroughputTps, r.ThroughputTps.Median*f)
	win("latency_p50_ms", "ms", r.LatencyP50Ms, r.LatencyP50Ms.Median/f)
	win("cpu_us_per_arrival", "us", r.CPUUsPerArr, r.CPUUsPerArr.Median/f)
	fmt.Printf("%-22s %12.4f s    (measured %.4f: boots %.4f)\n", "setup_s", r.setupS()/f, r.setupS(), r.SetupS)
	if w.WAL {
		fmt.Printf("%-22s %12.4f s    (measured %.4f: crash images %.4f)\n", "recovery_s", r.recoveryS()/f, r.recoveryS(), r.RecoveryS)
	} else {
		fmt.Printf("%-22s %12s      (no WAL, nothing to recover: the report line repeats setup_s)\n", "recovery_s", "n/a")
	}
	fmt.Printf("%-22s %12.4f ms   (%d samples)\n", "serve.latency_p99_ms", r.LatencyP99Ms, r.LatencySamples)
	fmt.Printf("%-22s %12.4f ms\n", "serve.ingest_ack_p50_ms", r.AckP50Ms)
	fmt.Printf("%-22s %12.4f ms\n", "serve.sched_lag_p99_ms", r.SchedLagP99Ms)
	fmt.Printf("%-22s %12.4f\n", "serve.allocs_per_arrival", r.AllocsPerArr)
	fmt.Printf("%-22s %12.4f ms\n", "serve.gc_pause_ms", r.GCPauseMs)
	fmt.Printf("%-22s %12.4f MiB\n", "serve.peak_rss_mb", r.PeakRSSMB)
	if r.Invalid != "" {
		fmt.Printf("INVALID: %s\n", r.Invalid)
	}
	fmt.Printf("failed %d of %d (refused %d, seq errors %d, rejected %d, verify mismatches %d, unrecovered %d); failed_ratio %.6f\n",
		r.Failed, r.Attempted, r.Refused, r.SeqErrors, r.Rejected, r.Mismatches, r.Unrecovered, float64(r.Failed)/float64(r.Attempted))
}
