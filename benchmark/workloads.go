package main

import (
	"fmt"
	"strconv"
)

// shards is pinned on every workload: the reference box has two cores, and
// a comparison between two commits must not also be a comparison between
// two topologies.
const shards = 2

// verifyLap is the number of leading arrivals whose results are compared
// pair-for-pair against core.Processor. It also fills every workload's
// windows (2 streams x w <= 2000 residents) before the timed phases start.
const verifyLap = 3000

// workload is one server configuration plus one traffic shape. The names
// are permanent: later PRs compare against history keyed by them.
type workload struct {
	Name string
	Why  string

	// Server flags (the benchmark passes nothing else but the fixed -seed,
	// -shards, -replay-buffer and the ports).
	Dataset string
	Scale   float64
	Eta     float64
	W       int
	WAL     bool

	// Stream shape. The server hard-codes xi=0.3 m=1 for its own draw, which
	// only matters for the repository (drawn after the stream from the same
	// rng); the stream the benchmark sends uses these.
	Xi float64
	M  int

	// Traffic. A run is a number of rounds proportional to -seconds, cut short
	// when they take longer than -seconds; every round is one closed-loop burst
	// of BurstPosts POSTs of ClosedBatch lines and one open-loop slice of
	// SlicePosts POSTs of OpenBatch lines at OpenRate arrivals a second. Sizes were set on the seed commit (see
	// README) so a burst and a slice each take about 0.3 s, and OpenRate is
	// roughly a quarter of closed-loop capacity.
	ClosedBatch int
	BurstPosts  int
	OpenBatch   int
	OpenRate    int
	SlicePosts  int
	// TracePerSecond sizes each in-process pass of the traced run.
	TracePerSecond int
}

var workloads = []workload{
	{
		Name:    "mixed-default",
		Why:     "Paper Table 5 defaults (Citations, |R|=245, xi=0.3, w=200): about 1/3 imputation and 2/3 ER, so any operator change shows; the reference for the other three",
		Dataset: "Citations", Scale: 20, Eta: 0.025, W: 200, Xi: 0.3, M: 1,
		ClosedBatch: 64, BurstPosts: 56, OpenBatch: 16, OpenRate: 3000, SlicePosts: 56, TracePerSecond: 440,
	},
	{
		Name:    "impute-heavy",
		Why:     "xi=0.8 m=2 over |R|=490 with w=50: cddindex, drindex, impute and tokens do nearly all the work and grid/prune almost none, isolating the imputation join",
		Dataset: "Citations", Scale: 10, Eta: 0.1, W: 50, Xi: 0.8, M: 2,
		ClosedBatch: 64, BurstPosts: 14, OpenBatch: 16, OpenRate: 750, SlicePosts: 14, TracePerSecond: 170,
	},
	{
		Name:    "resolve-heavy",
		Why:     "EBooks complete tuples (xi=0) over w=1000: imputation does zero work, grid plus the pruning cascade plus refinement are all of operator time, Jaccard runs pairwise on long sets",
		Dataset: "EBooks", Scale: 3, Eta: 0.05, W: 1000, Xi: 0, M: 1,
		ClosedBatch: 64, BurstPosts: 12, OpenBatch: 16, OpenRate: 650, SlicePosts: 12, TracePerSecond: 170,
	},
	{
		Name:    "durable-smallbatch",
		Why:     "mixed-default data with -wal-dir and 8-line POSTs: one fsync per POST and the NDJSON codec dominate, so its gap to mixed-default is the cost of wal plus serve",
		Dataset: "Citations", Scale: 20, Eta: 0.025, W: 200, Xi: 0.3, M: 1, WAL: true,
		ClosedBatch: 8, BurstPosts: 160, OpenBatch: 8, OpenRate: 1500, SlicePosts: 48, TracePerSecond: 440,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the flags terids-serve is started with.
func (w workload) serverArgs(addr, debugAddr, walDir string) []string {
	args := []string{
		"-addr", addr,
		"-dataset", w.Dataset,
		"-scale", strconv.FormatFloat(w.Scale, 'g', -1, 64),
		"-eta", strconv.FormatFloat(w.Eta, 'g', -1, 64),
		"-w", strconv.Itoa(w.W),
		"-seed", strconv.Itoa(datasetSeed),
		"-shards", strconv.Itoa(shards),
		// The tail reads every result from sequence 0; a ring this deep means
		// it never falls off the end and 410s.
		"-replay-buffer", "65536",
	}
	if debugAddr != "" {
		args = append(args, "-debug-addr", debugAddr)
	}
	if w.WAL {
		args = append(args, "-wal-dir", walDir)
	}
	return args
}

// roundSeconds is what one round (a burst, a slice, their drains, the
// reference work and its share of the probes) takes on the seed commit when
// the box is quiet, so a
// run of -seconds is sized at seconds/roundSeconds rounds. When the box is
// slow the run stops at -seconds with fewer rounds done (runE2E).
const roundSeconds = 0.85

// counts are the arrival counts of one run.
type counts struct {
	Verify int
	// Rounds is how many rounds the run is sized for and, once it has run, how
	// many it did.
	Rounds int
	// Burst and Slice are the arrivals in one closed-loop burst and one
	// open-loop slice.
	Burst, Slice int
}

func (c counts) perRound() int { return c.Burst + c.Slice }
func (c counts) total() int    { return c.Verify + c.Rounds*c.perRound() }

// burstFrom and sliceFrom are the sequence numbers of round k's first
// closed-loop and first open-loop arrival.
func (c counts) burstFrom(k int) int { return c.Verify + k*c.perRound() }
func (c counts) sliceFrom(k int) int { return c.burstFrom(k) + c.Burst }

// minRounds keeps a shortened run (the traced run's embedded pass, or a
// small -seconds) long enough for its medians to mean something and for one
// probe of each kind.
const minRounds = 2 * probeEvery

// phaseCounts sizes a run of the given length, scaled by frac (the traced
// run's embedded end-to-end pass uses a fraction).
func (w workload) phaseCounts(seconds int, frac float64) counts {
	return counts{
		Verify: verifyLap,
		Rounds: max(int(float64(seconds)*frac/roundSeconds), minRounds),
		Burst:  w.BurstPosts * w.ClosedBatch,
		Slice:  w.SlicePosts * w.OpenBatch,
	}
}
