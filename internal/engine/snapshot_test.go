package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"terids/internal/core"
	"terids/internal/snapshot"
)

// collectResults wires an engine result sink indexed by sequence number.
type collector struct {
	mu    sync.Mutex
	pairs map[int64][]core.Pair
}

func newCollector() *collector { return &collector{pairs: make(map[int64][]core.Pair)} }

func (c *collector) onResult(res Result) {
	c.mu.Lock()
	c.pairs[res.Seq] = res.Pairs
	c.mu.Unlock()
}

// roundtrip pushes a checkpoint through the binary format, as a restart
// across processes would.
func roundtrip(t *testing.T, c *snapshot.Checkpoint) *snapshot.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

// TestCrashRestoreEquivalence is the crash/restore property test of the
// checkpoint contract: process some prefix of the stream, barrier-checkpoint
// at a pseudo-random mid-stream point, restore into a completely fresh
// engine — including restores at a different shard count K→K' — and the
// combined output (prefix from the first engine, suffix from the restored
// one) must be byte-identical to an uninterrupted core.Processor run: same
// pairs, same order, same probabilities, same final entity set. Run under
// -race in CI.
func TestCrashRestoreEquivalence(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)

	// Seeded: deterministic in CI, but midpoints vary across the reshard
	// cases so cut points land in different window/grid phases.
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name  string
		k, k2 int
	}{
		{"K=2 resumed at K=2", 2, 2},
		{"K=1 resharded to K=4", 1, 4},
		{"K=4 resharded to K=1", 4, 1},
		{"K=3 resharded to K=8", 3, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mid := 1 + rng.Intn(n-2)

			first := newCollector()
			eng, err := New(f.sh, Config{Core: f.cfg, Shards: tc.k, OnResult: first.onResult})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range f.stream[:mid] {
				if err := eng.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			// Barrier checkpoint on the live engine (the "crash" happens
			// after it: the first engine is simply abandoned).
			c, err := eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if c.Seq != int64(mid) {
				t.Fatalf("checkpoint watermark %d, want %d", c.Seq, mid)
			}
			if c.Shards != tc.k {
				t.Fatalf("checkpoint records K=%d, want %d", c.Shards, tc.k)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			second := newCollector()
			eng2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: tc.k2, OnResult: second.onResult}, roundtrip(t, c))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range f.stream[mid:] {
				if err := eng2.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng2.Close(); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < n; i++ {
				got, ok := first.pairs[int64(i)]
				if i >= mid {
					got, ok = second.pairs[int64(i)]
				}
				if !ok {
					t.Fatalf("arrival %d never finalized (mid=%d)", i, mid)
				}
				if !samePairs(wantPerArrival[i], got) {
					t.Fatalf("arrival %d (mid=%d, K=%d→%d): got %v, reference %v",
						i, mid, tc.k, tc.k2, got, wantPerArrival[i])
				}
			}
			if !samePairs(wantFinal, eng2.ResultSet()) {
				t.Fatalf("final entity set differs after restore (mid=%d, K=%d→%d)", mid, tc.k, tc.k2)
			}
			st := eng2.Stats()
			if st.Submitted != int64(n) || st.Completed != int64(n) {
				t.Fatalf("restored engine submitted=%d completed=%d, want %d", st.Submitted, st.Completed, n)
			}
		})
	}
}

// TestCheckpointBarrierIsNonDisruptive: checkpointing a running engine and
// then continuing on the SAME engine must not perturb its output.
func TestCheckpointBarrierIsNonDisruptive(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)

	col := newCollector()
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 4, OnResult: col.onResult})
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for i, r := range f.stream {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
		if i%97 == 13 {
			c, err := eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if c.Seq != int64(i+1) {
				t.Fatalf("mid-run checkpoint at seq %d, want %d", c.Seq, i+1)
			}
			checkpoints++
		}
	}
	if checkpoints == 0 {
		t.Fatal("no mid-run checkpoints exercised")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range wantPerArrival {
		if !samePairs(wantPerArrival[i], col.pairs[int64(i)]) {
			t.Fatalf("arrival %d: output perturbed by mid-run checkpoints", i)
		}
	}
	if !samePairs(wantFinal, eng.ResultSet()) {
		t.Fatal("final entity set perturbed by mid-run checkpoints")
	}
}

// TestCheckpointConcurrentWithSubmissions drives the barrier from a separate
// goroutine while a submitter floods the queue — deadlock-freedom and
// watermark consistency under -race.
func TestCheckpointConcurrentWithSubmissions(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 3, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, r := range f.stream {
			if err := eng.Submit(r); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		c, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.Seq > int64(len(f.stream)) {
			t.Fatalf("checkpoint watermark %d beyond stream length %d", c.Seq, len(f.stream))
		}
	}
	<-done
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAfterClose: a drained, closed engine stays checkpointable —
// the graceful-shutdown path (close, then write the final checkpoint).
func TestCheckpointAfterClose(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != int64(len(f.stream)) {
		t.Fatalf("final checkpoint at seq %d, want %d", c.Seq, len(f.stream))
	}

	// The checkpoint restores into a single-threaded Processor too: cross-
	// layer portability of the format.
	proc, err := core.NewProcessorFromSnapshot(f.sh, f.cfg, roundtrip(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !samePairs(eng.ResultSet(), proc.Results().Pairs()) {
		t.Fatal("entity set differs after restoring an engine checkpoint into a Processor")
	}
}

// TestProcessorCheckpointIntoEngine is the reverse cross-layer path: a
// single-threaded Processor's snapshot seeds a K-sharded engine, which then
// continues the stream identically to the uninterrupted reference.
func TestProcessorCheckpointIntoEngine(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	mid := 2 * len(f.stream) / 3

	proc, err := core.NewProcessor(f.sh, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:mid] {
		if _, err := proc.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := proc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	col := newCollector()
	eng, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: 4, OnResult: col.onResult}, roundtrip(t, c))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[mid:] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i := mid; i < len(f.stream); i++ {
		if !samePairs(wantPerArrival[i], col.pairs[int64(i)]) {
			t.Fatalf("arrival %d: engine-from-processor-snapshot diverged", i)
		}
	}
	if !samePairs(wantFinal, eng.ResultSet()) {
		t.Fatal("final entity set differs after Processor→engine restore")
	}
}

// TestRestoreRejectsMismatchedConfig mirrors the core-level guard at the
// engine layer.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:30] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	bad := f.cfg
	bad.WindowSize = 49
	if _, err := NewFromSnapshot(f.sh, Config{Core: bad, Shards: 2}, c); err == nil {
		t.Fatal("NewFromSnapshot accepted a mismatched window size")
	}
}

// TestRestoreEntryPointsEquivalent is the one-restore-path contract: the
// same checkpoint plus the same WAL suffix, driven through every public
// entry point that installs engine state, yields one result stream —
// byte-identical, per arrival and in the final entity set, to an
// uninterrupted core.Processor run. One row per entry point. Run under -race
// in CI.
func TestRestoreEntryPointsEquivalent(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)
	mid := 2 * n / 3 // late enough that the checkpoint carries live pairs
	const k = 3

	// The shared durable state: a full checkpoint at mid and a WAL holding
	// every arrival, left exactly as a SIGKILL after the last Submit would.
	dir := t.TempDir()
	dcfg := DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096}
	w, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: k}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Eng.SubmitBatch(f.stream[:mid]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := w.Eng.SubmitBatch(f.stream[mid:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(false); err != nil {
		t.Fatal(err)
	}
	_, c, err := LatestCheckpoint(dir)
	if err != nil || c == nil || c.Seq != int64(mid) {
		t.Fatalf("shared checkpoint: %v at %+v, want watermark %d", err, c, mid)
	}
	suffix := f.stream[mid:] // what the WAL holds past the checkpoint
	suffixPairs := 0
	for _, ps := range wantPerArrival[mid:] {
		suffixPairs += len(ps)
	}
	if len(c.Pairs) == 0 || suffixPairs == 0 {
		t.Fatalf("fixture too thin: checkpoint carries %d pairs, suffix emits %d", len(c.Pairs), suffixPairs)
	}
	crashDir := func(t *testing.T) DurableConfig {
		d := dcfg
		d.Dir = t.TempDir()
		copyTree(t, dir, d.Dir)
		return d
	}

	runSuffix := func(t *testing.T, eng *Engine) []core.Pair {
		t.Helper()
		if err := eng.SubmitBatch(suffix); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		return eng.ResultSet()
	}

	// Each row brings an engine to the checkpoint through its entry point,
	// runs the suffix, and returns the per-arrival results for [mid, n) with
	// the final entity set.
	rows := []struct {
		name string
		run  func(t *testing.T, col *collector) []core.Pair
	}{
		{"NewFromSnapshot", func(t *testing.T, col *collector) []core.Pair {
			eng, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: k, OnResult: col.onResult}, c)
			if err != nil {
				t.Fatal(err)
			}
			return runSuffix(t, eng)
		}},
		{"ApplyCheckpoint", func(t *testing.T, col *collector) []core.Pair {
			eng, err := New(f.sh, Config{Core: f.cfg, Shards: k, OnResult: col.onResult})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ApplyCheckpoint(c); err != nil {
				t.Fatal(err)
			}
			return runSuffix(t, eng)
		}},
		{"OpenDurable", func(t *testing.T, col *collector) []core.Pair {
			d, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: k, OnResult: col.onResult}, crashDir(t))
			if err != nil {
				t.Fatal(err)
			}
			if d.ResumeSeq() != int64(n) || d.Replayed() != int64(n-mid) {
				t.Fatalf("recovery resumed at %d after %d replayed, want %d after %d",
					d.ResumeSeq(), d.Replayed(), n, n-mid)
			}
			if err := d.Close(false); err != nil {
				t.Fatal(err)
			}
			return d.Eng.ResultSet()
		}},
		{"DeepReplay", func(t *testing.T, col *collector) []core.Pair {
			d, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: k}, crashDir(t))
			if err != nil {
				t.Fatal(err)
			}
			got, high := deepCollect(t, d, int64(mid), 0)
			if high != int64(n-1) {
				t.Fatalf("deep replay reached seq %d, want %d", high, n-1)
			}
			for _, res := range got {
				col.onResult(res)
			}
			if err := d.Close(false); err != nil {
				t.Fatal(err)
			}
			// The throwaway engine is gone; the host's set stands in.
			return d.Eng.ResultSet()
		}},
		{"Promote", func(t *testing.T, col *collector) []core.Pair {
			// Promoting right after boot leaves the suffix to the promotion's
			// remainder replay (a tail pass that fires first takes a prefix).
			p, err := OpenFollower(f.sh, Config{Core: f.cfg, Shards: k, OnResult: col.onResult}, crashDir(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Promote(); err != nil {
				t.Fatal(err)
			}
			if p.ResumeSeq() != int64(n) {
				t.Fatalf("promoted writer resumes at %d, want %d", p.ResumeSeq(), n)
			}
			if err := p.Close(false); err != nil {
				t.Fatal(err)
			}
			return p.Eng.ResultSet()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			col := newCollector()
			final := row.run(t, col)
			for i := mid; i < n; i++ {
				got, ok := col.pairs[int64(i)]
				if !ok {
					t.Fatalf("arrival %d never finalized", i)
				}
				if !samePairs(wantPerArrival[i], got) {
					t.Fatalf("arrival %d: got %v, reference %v", i, got, wantPerArrival[i])
				}
			}
			if !samePairs(wantFinal, final) {
				t.Fatalf("final entity set differs: %d pairs, reference %d", len(final), len(wantFinal))
			}
		})
	}
}
