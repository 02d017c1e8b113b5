package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"terids/internal/core"
	"terids/internal/dataset"
)

func TestSelfTimes(t *testing.T) {
	// arrival [0,100] → impute [10,40] → lookup [15,25]; resolve [50,90].
	spans := []span{
		{Name: "arrival", Start: 0, End: 100, Parent: -1},
		{Name: "impute", Start: 10, End: 40, Parent: 0},
		{Name: "lookup", Start: 15, End: 25, Parent: 1},
		{Name: "resolve", Start: 50, End: 90, Parent: 0},
		{Name: "arrival", Start: 100, End: 130, Parent: -1, Arrival: 1},
		{Name: "resolve", Start: 105, End: 125, Parent: 4, Arrival: 1},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"arrival": {Calls: 2, TotalNs: 130, SelfNs: 130 - 30 - 40 - 20},
		"impute":  {Calls: 1, TotalNs: 30, SelfNs: 20},
		"lookup":  {Calls: 1, TotalNs: 10, SelfNs: 10},
		"resolve": {Calls: 2, TotalNs: 60, SelfNs: 60},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	// Self times partition the roots' total: nothing is counted twice.
	var self int64
	for _, lt := range got {
		self += lt.SelfNs
	}
	if self != 130 {
		t.Errorf("self times sum to %d, want the roots' 130", self)
	}
	if got := layerSelfByChunk(spans, 1, 2); got[0] != 70 || got[1] != 20 {
		t.Errorf("layerSelfByChunk = %v, want [70 20]", got)
	}
	if got := rootByChunk(spans, 1, 2); got[0] != 100 || got[1] != 30 {
		t.Errorf("rootByChunk = %v, want [100 30]", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(4)
	r.arrival = 7
	r.begin("a")
	r.begin("b")
	r.end()
	r.begin("c")
	r.end()
	r.end()
	if len(r.spans) != 3 || len(r.open) != 0 {
		t.Fatalf("spans %d open %d", len(r.spans), len(r.open))
	}
	for i, want := range []int32{-1, 0, 0} {
		if r.spans[i].Parent != want || r.spans[i].Arrival != 7 {
			t.Errorf("span %d: parent %d arrival %d", i, r.spans[i].Parent, r.spans[i].Arrival)
		}
		if r.spans[i].End < r.spans[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(v, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if got := quantile(v, 1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if !slices.Equal(v, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestOverWindows(t *testing.T) {
	v := []float64{9, 12, 10, 11, 8}
	w := overWindows(v, nil)
	if w.Median != 10 || w.Q1 != 9 || w.Q3 != 11 || w.Usable != 5 {
		t.Errorf("all windows: %+v", w)
	}
	// Only usable windows count...
	w = overWindows(v, []bool{true, true, false, false, false})
	if w.Median != 10.5 || w.Usable != 2 {
		t.Errorf("masked: %+v", w)
	}
	// ...unless none is.
	w = overWindows(v, make([]bool, 5))
	if w.Median != 10 || w.Usable != 0 {
		t.Errorf("all masked: %+v", w)
	}
}

func TestQuietMedian(t *testing.T) {
	v := []float64{0.40, 0.90, 0.42, 0.44}
	if got := quietMedian(v, []int64{0, 7, 0, 0}); got != 0.42 {
		t.Errorf("undisturbed samples: %v", got)
	}
	if got := quietMedian(v, []int64{1, 7, 2, 1}); got != 0.43 {
		t.Errorf("all disturbed: %v", got)
	}
}

// The reference work must be the same work every time and on every build:
// the host factor compares its time across runs and commits.
func TestHostRefFixedWork(t *testing.T) {
	a, b := newHostRef(), newHostRef()
	if got, again := a.work(), b.work(); got != again || got == 0 {
		t.Errorf("work() = %d and %d", got, again)
	}
	if len(a.sets) != refSets || len(a.sets[0]) != refSetLen {
		t.Errorf("%d sets of %d", len(a.sets), len(a.sets[0]))
	}
	if s := a.sample(); s <= 0 {
		t.Errorf("sample() = %v", s)
	}
	r := e2eResult{RefS: []float64{2 * refNominalS, 9, 2 * refNominalS}, RefStolen: []int64{0, 3, 0}}
	if f := r.hostFactor(); f != 2 {
		t.Errorf("hostFactor() = %v, want 2", f)
	}
}

func TestAtZeroSteal(t *testing.T) {
	// 0.25 s a burst plus 9 ms per stolen tick, one burst hit by something
	// else as well: the intercept is the undisturbed time.
	stolen := []int64{4, 10, 7, 30, 12, 5}
	secs := make([]float64, len(stolen))
	for i, s := range stolen {
		secs[i] = 0.25 + 0.009*float64(s)
	}
	secs[3] += 0.4
	if got := atZeroSteal(secs, stolen); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("intercept = %v, want 0.25", got)
	}
	// No two rounds differ in stolen ticks: no line, the median.
	if got := atZeroSteal([]float64{3, 1, 2}, []int64{5, 5, 5}); got != 2 {
		t.Errorf("flat = %v, want 2", got)
	}
}

func TestLatencyOver(t *testing.T) {
	p50 := []float64{2, 3, 50, 4}
	onTime := []bool{true, true, false, true}
	// Undisturbed on-time slices first...
	if w, used := latencyOver(p50, []bool{true, false, true, false}, onTime); w.Median != 2 || w.Usable != 1 || !used[0] || used[1] {
		t.Errorf("quiet and on time: %+v", w)
	}
	// ...the on-time ones when the host disturbed them all...
	if w, used := latencyOver(p50, make([]bool, 4), onTime); w.Median != 3 || w.Usable != 3 || used[2] {
		t.Errorf("all disturbed: %+v", w)
	}
	// ...and no usable slice, which invalidates the run, when the generator
	// was late throughout.
	if w, _ := latencyOver(p50, []bool{true, true, true, true}, make([]bool, 4)); w.Usable != 0 {
		t.Errorf("all late: %+v", w)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]int, 100)
	growing := make([]int, 100)
	for i := range steady {
		steady[i] = 40 + i%7
		growing[i] = 40 + 20*i
	}
	if backlogGrowing(steady, 16) {
		t.Error("steady backlog reported as growing")
	}
	if !backlogGrowing(growing, 16) {
		t.Error("growing backlog not reported")
	}
	// Only the slices the latency was taken from count: a slice the
	// hypervisor stalled is left out, and so is any round past the last one
	// the run got to.
	per := [][]int{{1, 2}, {100, 200}, {3, 4}, nil}
	if got := sumOver(per, []bool{true, false, true}); len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Errorf("sumOver = %v", got)
	}
}

func TestLineSeq(t *testing.T) {
	for line, want := range map[string]int64{
		`{"seq":0,"rid":"a","pairs":[]}`:       0,
		`{"seq":65536,"rid":"a#2","pairs":[]}`: 65536,
	} {
		if got, ok := lineSeq([]byte(line)); !ok || got != want {
			t.Errorf("lineSeq(%s) = %d, %v", line, got, ok)
		}
	}
	for _, line := range []string{``, `{"error":"gone"}`, `{"seq":x,`, `{"seq":12`} {
		if _, ok := lineSeq([]byte(line)); ok {
			t.Errorf("lineSeq(%q) accepted", line)
		}
	}
}

func TestPhaseCounts(t *testing.T) {
	for _, w := range workloads {
		full, part := w.phaseCounts(26, 1), w.phaseCounts(26, embeddedFrac)
		if full.Rounds != 30 || part.Rounds != 9 || w.phaseCounts(1, 1).Rounds != minRounds {
			t.Errorf("%s: %d and %d rounds", w.Name, full.Rounds, part.Rounds)
		}
		if full.burstFrom(0) != verifyLap || full.sliceFrom(0) != verifyLap+full.Burst || full.burstFrom(full.Rounds) != full.total() {
			t.Errorf("%s: rounds do not tile the run: %+v", w.Name, full)
		}
		// A burst and a slice are each sized to about 0.3 s.
		if got := float64(full.Slice) / float64(w.OpenRate); got < 0.25 || got > 0.35 {
			t.Errorf("%s: a slice lasts %.3f s", w.Name, got)
		}
	}
}

func TestInputDeterministic(t *testing.T) {
	w := workloads[0]
	w.Scale = 1 // a small draw; the shape of the code path is the same
	a, err := newInput(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInput(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInput(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	body := func(in *input) string {
		bs, err := in.bodies(0, 2*len(in.base), 10)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, b := range bs {
			all = append(all, b...)
		}
		return string(all)
	}
	if body(a) != body(b) {
		t.Error("same seed, different arrivals")
	}
	if body(a) == body(c) {
		t.Error("different seeds, same arrivals")
	}
	// Laps keep RIDs unique.
	seen := map[string]bool{}
	for i := 0; i < 2*len(a.base); i++ {
		if seen[a.rid(i)] {
			t.Fatalf("rid %s repeats at arrival %d", a.rid(i), i)
		}
		seen[a.rid(i)] = true
	}
}

// manualClock only moves when told to: SleepUntil jumps straight to the
// deadline, advance models time passing elsewhere.
type manualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// TestOpenLoopChargesStallToLaterArrivals is the coordinated-omission
// check: when the server sits on one reply, the batches queued behind it
// depart late, and their latency must be taken from when they were due —
// so the stall shows in their numbers — not from when they actually left.
func TestOpenLoopChargesStallToLaterArrivals(t *testing.T) {
	const (
		batch    = 4
		batches  = 10
		stalled  = 3
		stall    = 50 * time.Millisecond
		rate     = 1000.0 // 4 lines per 4 ms
		interval = 4 * time.Millisecond
	)
	clk := &manualClock{}
	results := make(chan int, batches) // lines ingested per POST
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(rw http.ResponseWriter, req *http.Request) {
		n := 0
		sc := bufio.NewScanner(req.Body)
		for sc.Scan() {
			n++
		}
		if posts == stalled {
			clk.advance(stall)
		}
		posts++
		results <- n
		fmt.Fprintln(rw, `{"accepted":`, n, `}`)
	})
	mux.HandleFunc("GET /results", func(rw http.ResponseWriter, req *http.Request) {
		rw.WriteHeader(http.StatusOK)
		rw.(http.Flusher).Flush()
		seq := 0
		for {
			select {
			case n := <-results:
				for i := 0; i < n; i++ {
					fmt.Fprintf(rw, "{\"seq\":%d,\"rid\":\"r%d\",\"pairs\":[]}\n", seq, seq)
					seq++
				}
				rw.(http.Flusher).Flush()
			case <-req.Context().Done():
				return
			}
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	gen, err := newGenerator(clk, srv.URL, batch*batches, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.close()
	bodies := make([][]byte, batches)
	for b := range bodies {
		for i := 0; i < batch; i++ {
			bodies[b] = fmt.Appendf(bodies[b], "{\"rid\":\"r%d\"}\n", b*batch+i)
		}
	}
	tr, err := gen.openLoop(bodies, batch, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.await(batch*batches, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if e := gen.seqErrors.Load(); e != 0 {
		t.Fatalf("%d sequence errors", e)
	}
	for b := 1; b < batches; b++ {
		if got := tr.Sched[b] - tr.Sched[b-1]; got != interval {
			t.Fatalf("batch %d scheduled %v after the previous, want %v whatever the server did", b, got, interval)
		}
	}
	lat := gen.latencies(tr, batch, 0)
	for b := stalled + 1; b < batches; b++ {
		// Batch b was due (b-stalled) intervals after the stalled one, and
		// could not leave before the stall ended.
		owed := stall - time.Duration(b-stalled)*interval
		if tr.Depart[b]-tr.Sched[b] < owed {
			t.Errorf("batch %d departed %v late, want at least %v", b, tr.Depart[b]-tr.Sched[b], owed)
		}
		for i := 0; i < batch; i++ {
			if got := lat[b*batch+i]; got < owed {
				t.Errorf("arrival %d (batch %d): latency %v hides the stall, want at least %v", b*batch+i, b, got, owed)
			}
		}
	}
}

// TestPassesAgree holds the hand-driven sub-layer replay (pass B) to the
// real core.Step (pass A) and to core.Processor, pair for pair, on a small
// fixture with both complete and incomplete arrivals.
func TestPassesAgree(t *testing.T) {
	w := workloads[1] // impute-heavy's xi and m: most arrivals need imputing
	w.Scale, w.Eta = 0.5, 0.3
	in, err := newInput(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.Prepare(in.server.Repo, core.DefaultPrepareConfig(in.server.Keywords))
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig(w, sh, in.server.Keywords)
	step, err := core.NewStep(sh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	recs, err := in.records(sh.Schema, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := newProcessorRun(sh, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	stA, err := newTracedState(step, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := newTracedState(step, n, 48)
	if err != nil {
		t.Fatal(err)
	}
	pA, pB := &passA{tracedState: stA}, &passB{tracedState: stB}
	for from := 0; from < n; from += 125 {
		for _, advance := range []func() error{
			func() error { return proc.advance(recs[from : from+125]) },
			func() error { return pA.advance(recs[from : from+125]) },
			func() error { return pB.advance(recs[from : from+125]) },
		} {
			if err := advance(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := proc.pairs()
	emitted := 0
	for _, p := range want {
		emitted += len(p)
	}
	if emitted == 0 || pB.n.DRCalls == 0 {
		t.Fatalf("fixture too easy: %d pairs, %d DR-index calls", emitted, pB.n.DRCalls)
	}
	if bad, first := diffPairs(want, stA.out); bad != 0 {
		t.Errorf("pass A differs from core.Processor on %d arrivals; first: %s", bad, first)
	}
	if bad, first := diffPairs(want, stB.out); bad != 0 {
		t.Errorf("pass B differs from core.Processor on %d arrivals; first: %s", bad, first)
	}
	if pA.stat != pB.n.PruneStats {
		t.Errorf("pruning counters differ: core.Step %+v, mirror %+v", pA.stat, pB.n.PruneStats)
	}
	// The mirror's spans must cover the operator: imputation spans exist
	// exactly when something was missing.
	lb := selfTimes(stB.rec.spans)
	if lb["drindex.matching"].Calls != pB.n.DRCalls || lb["arrival"].Calls != n {
		t.Errorf("span calls %d/%d do not match counters %d/%d",
			lb["drindex.matching"].Calls, lb["arrival"].Calls, pB.n.DRCalls, n)
	}
}

// TestContract holds BENCHMARK.json, the workload table and the units
// tables together.
func TestContract(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := dataset.ProfileByName(workloads[i].Dataset); err != nil {
			t.Error(err)
		}
	}
	e2e := map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	layer := map[string]string{}
	for _, m := range c.PerLayer {
		layer[m.Name] = m.Unit
	}
	for name, got := range map[string][2]map[string]string{"end_to_end": {e2e, endToEndUnits}, "per_layer": {layer, perLayerUnits}} {
		if len(got[0]) != len(got[1]) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the units table", name, len(got[0]), len(got[1]))
		}
		for metric, unit := range got[1] {
			if got[0][metric] != unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q in the units table", name, metric, got[0][metric], unit)
			}
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}
