// Command benchgate is the benchmark regression gate: it compares a fresh
// BENCH_engine.json (see cmd/benchjson) against a committed baseline and
// fails when a gated latency metric regresses beyond a tolerance.
//
// Usage:
//
//	go run ./cmd/benchgate -baseline BENCH_baseline.json -current BENCH_engine.json
//
// Because CI machines differ from the machine that produced the baseline,
// raw wall-clock comparison would gate on hardware, not code. Both sides are
// therefore normalized by a reference benchmark measured in the same run —
// by default ProcessorBaseline's ns/op, the single-threaded operator core
// over the same arrivals. The gated quantity is the ratio
//
//	metric / ref_ns_per_op
//
// i.e. "engine nanoseconds per arrival, in units of core-processor
// nanoseconds", which is stable across machine speeds. Pass -ref "" to
// compare raw values instead (only meaningful on identical hardware).
//
// The reference is not a constant of the code base: a change that makes the
// operator core cheaper shrinks the denominator while the pipeline's fixed
// per-arrival overhead stays put, so the ratio rises without any engine
// regression. Such a change refreshes the committed baseline
// (scripts/bench_baseline.sh) in the same commit.
//
// When a run repeats a benchmark (-count > 1), the minimum per name is used
// on both sides — benchstat-style best-of, the least noisy floor for
// latency metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Result and Report mirror cmd/benchjson's output schema.
type Result struct {
	Name    string             `json:"name"`
	Procs   int                `json:"procs,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

type Report struct {
	Results []Result `json:"results"`
}

// load reads a benchjson report and folds repeated benchmark names down to
// the per-metric minimum.
func load(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string]float64{}
	for _, r := range rep.Results {
		m := out[r.Name]
		if m == nil {
			m = map[string]float64{}
			out[r.Name] = m
		}
		for unit, v := range r.Metrics {
			if prev, ok := m[unit]; !ok || v < prev {
				m[unit] = v
			}
		}
	}
	return out, nil
}

// refScale returns the normalization divisor for one report: the reference
// benchmark's metric, or 1 when normalization is disabled.
func refScale(rep map[string]map[string]float64, refName, refMetric, path string) (float64, error) {
	if refName == "" {
		return 1, nil
	}
	m, ok := rep[refName]
	if !ok {
		return 0, fmt.Errorf("%s: reference benchmark %q missing — cannot normalize", path, refName)
	}
	v, ok := m[refMetric]
	if !ok || v <= 0 {
		return 0, fmt.Errorf("%s: reference %q has no positive %q", path, refName, refMetric)
	}
	return v, nil
}

func run() error {
	var (
		basePath  = flag.String("baseline", "BENCH_baseline.json", "committed baseline report (benchjson schema)")
		curPath   = flag.String("current", "BENCH_engine.json", "freshly measured report to gate")
		metrics   = flag.String("metrics", "ns_per_arrival,batch_ns_per_arrival", "comma-separated latency metrics to gate (lower is better)")
		refName   = flag.String("ref", "ProcessorBaseline", "reference benchmark used to normalize across machines (\"\" = raw comparison)")
		refMetric = flag.String("ref-metric", "ns/op", "metric of the reference benchmark")
		maxRegr   = flag.Float64("max-regress", 0.15, "fail when normalized metric exceeds baseline by more than this fraction")
	)
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		return err
	}
	cur, err := load(*curPath)
	if err != nil {
		return err
	}
	baseRef, err := refScale(base, *refName, *refMetric, *basePath)
	if err != nil {
		return err
	}
	curRef, err := refScale(cur, *refName, *refMetric, *curPath)
	if err != nil {
		return err
	}

	gated := map[string]bool{}
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			gated[m] = true
		}
	}

	rows, failures, compared := compare(base, cur, baseRef, curRef, gated, *maxRegr, *curPath)
	fmt.Printf("%-28s %-26s %12s %12s %8s\n", "benchmark", "metric", "baseline", "current", "delta")
	for _, row := range rows {
		fmt.Println(row)
	}
	if compared == 0 {
		return fmt.Errorf("no gated metrics (%s) found in %s — empty gate would pass vacuously", *metrics, *basePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("gate passed: %d metrics within %.0f%% of baseline (normalized by %s %s)\n",
		compared, *maxRegr*100, *refName, *refMetric)
	return nil
}

// compare evaluates every gated baseline metric against the current report.
// Each side is divided by its own reference scale before comparison. It
// returns printable table rows, gate failures (regressions, dropped
// benchmarks, renamed metrics), and how many metrics were actually compared.
func compare(base, cur map[string]map[string]float64, baseRef, curRef float64,
	gated map[string]bool, maxRegr float64, curPath string) (rows, failures []string, compared int) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		units := make([]string, 0, len(base[name]))
		for unit := range base[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := base[name][unit]
			if !gated[unit] || bv <= 0 {
				continue
			}
			curMetrics, ok := cur[name]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: present in baseline but missing from %s — benchmark dropped?", name, curPath))
				continue
			}
			cv, ok := curMetrics[unit]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: metric %s missing from %s — metric renamed?", name, unit, curPath))
				continue
			}
			compared++
			delta := (cv/curRef)/(bv/baseRef) - 1
			mark := ""
			if delta > maxRegr {
				mark = "  REGRESSION"
				failures = append(failures, fmt.Sprintf("%s %s regressed %.1f%% (limit %.0f%%)",
					name, unit, delta*100, maxRegr*100))
			}
			rows = append(rows, fmt.Sprintf("%-28s %-26s %12.0f %12.0f %+7.1f%%%s",
				name, unit, bv, cv, delta*100, mark))
		}
	}
	return rows, failures, compared
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
