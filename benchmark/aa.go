package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// aaSeeds is how many seeds each set covers per workload: what AA.md's
// procedure and the acceptance rule for run-to-run spread are written for.
const aaSeeds = 10

// aaSetBSeedOffset keeps the second set's seeds apart from the first's.
const aaSetBSeedOffset = 100

// runAA is the A/A check: the same build measured as two independent sets
// of runs, each set covering every workload over aaSeeds seeds, judged the
// way a parent-vs-change comparison is judged. For every end-to-end metric
// and workload it prints both sets' medians and interquartile spreads (as
// statistics.quantiles(n=4) gives them, over the median), how much worse the
// second median is than the first, and the metric's bound; it fails when a
// spread (setup_s excepted: its bound only guards the medians) or a
// worsening exceeds the bound, or any run reports a failed operation.
func runAA(seconds int, buildDir string) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] are the per-seed values.
	var values [2]map[string]map[string][]float64
	failedRuns := 0
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range c.Workloads {
			values[set][w.Name] = make(map[string][]float64)
			for i := 1; i <= aaSeeds; i++ {
				seed := i + set*aaSetBSeedOffset
				rep, err := runChild(self, w.Name, seed, seconds, buildDir)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if !rep.Correct || rep.Failed != 0 {
					failedRuns++
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d failed\n", w.Name, seed, rep.Failed, rep.Attempted)
				}
				for name, m := range rep.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c %s seed %d done\n", 'A'+set, w.Name, seed)
			}
		}
	}

	violations := 0
	fmt.Printf("| workload | metric | median A | spread A | median B | spread B | B worse by | bound | verdict |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, w := range c.Workloads {
		for _, em := range c.EndToEnd {
			a, b := values[0][w.Name][em.Name], values[1][w.Name][em.Name]
			if len(a) != aaSeeds || len(b) != aaSeeds {
				return fmt.Errorf("%s: %s reported by %d and %d of %d runs", w.Name, em.Name, len(a), len(b), aaSeeds)
			}
			medA, medB := median(a), median(b)
			worse := (medB - medA) / medA
			if em.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > em.Bound {
				verdict = "MEDIAN MOVED"
			}
			if em.Name != "setup_s" && (spread(a) > em.Bound || spread(b) > em.Bound) {
				verdict = "SPREAD OVER BOUND"
			}
			if verdict != "ok" {
				violations++
			}
			fmt.Printf("| %s | %s | %.4f | %.1f%% | %.4f | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.Name, em.Name, medA, 100*spread(a), medB, 100*spread(b), 100*worse, 100*em.Bound, verdict)
		}
	}
	// The benchmark measures; it claims nothing. The summary says so last.
	summary, err := json.Marshal(struct {
		RunsPerSet       int     `json:"runs_per_set"`
		Seconds          int     `json:"seconds"`
		Violations       int     `json:"violations"`
		RunsWithFailures int     `json:"runs_with_failures"`
		Claim            *string `json:"claim"`
	}{aaSeeds * len(c.Workloads), seconds, violations, failedRuns, nil})
	if err != nil {
		return err
	}
	fmt.Println(string(summary))
	if violations > 0 || failedRuns > 0 {
		return fmt.Errorf("A/A check failed: %d metric x workload pairs out of bounds, %d runs with failed operations", violations, failedRuns)
	}
	return nil
}

// runChild runs one measured run as its own process, exactly as the driver
// does, keeps its standard output (the per-round detail says what the box
// was doing when a set comes out wide) in benchmark/out/, and parses the
// last line.
func runChild(self, workload string, seed, seconds int, buildDir string) (*report, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds),
		"-trace", "0", "-build-dir", buildDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("aa-%s-%d.txt", workload, seed)), out, 0o644); err != nil {
		return nil, err
	}
	out = bytes.TrimRight(out, "\n")
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("last line of output is not a report: %w", err)
	}
	return &rep, nil
}
