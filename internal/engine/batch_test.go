package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// submitInBatches drives the whole fixture stream through SubmitBatch in
// fixed-size slices.
func submitInBatches(t *testing.T, eng *Engine, f fixture, bs int) {
	t.Helper()
	for off := 0; off < len(f.stream); off += bs {
		end := off + bs
		if end > len(f.stream) {
			end = len(f.stream)
		}
		if err := eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitBatchMatchesSingle is the batched-path equivalence property:
// for K ∈ {1, 4, 8} and several batch sizes (including ones that straddle
// the stream length unevenly), SubmitBatch produces per-arrival output and a
// final entity set byte-identical to the single-threaded reference — and
// therefore to the single-Submit path, which is checked against the same
// reference in TestEngineMatchesProcessor. Run under -race in CI.
func TestSubmitBatchMatchesSingle(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)

	for _, k := range []int{1, 4, 8} {
		for _, bs := range []int{3, 64, 500} {
			t.Run(fmt.Sprintf("K=%d/batch=%d", k, bs), func(t *testing.T) {
				col := newCollector()
				eng, err := New(f.sh, Config{Core: f.cfg, Shards: k, OnResult: col.onResult})
				if err != nil {
					t.Fatal(err)
				}
				submitInBatches(t, eng, f, bs)
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				for i := range wantPerArrival {
					pairs, ok := col.pairs[int64(i)]
					if !ok {
						t.Fatalf("arrival %d never finalized", i)
					}
					if !samePairs(wantPerArrival[i], pairs) {
						t.Fatalf("arrival %d (%s): K=%d batch=%d emitted %v, processor %v",
							i, f.stream[i].RID, k, bs, pairs, wantPerArrival[i])
					}
				}
				if !samePairs(wantFinal, eng.ResultSet()) {
					t.Fatalf("final entity set differs at K=%d batch=%d", k, bs)
				}
				if st := eng.Stats(); st.Completed != int64(len(f.stream)) {
					t.Fatalf("completed %d arrivals, submitted %d", st.Completed, len(f.stream))
				}
			})
		}
	}
}

// TestSubmitBatchCrashRecovery crash-recovers a WAL written entirely by
// batched submits: kill mid-stream (directory clone), recover at a different
// K, finish with batched submits, and require byte-identical output — the
// recovery replay itself runs through SubmitBatch.
func TestSubmitBatchCrashRecovery(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)
	kill := 2 * n / 3
	ckptAt := n / 4

	dir := t.TempDir()
	first := newCollector()
	d1, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 2, OnResult: first.onResult},
		DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < kill; off += 32 {
		end := off + 32
		if end > kill {
			end = kill
		}
		if err := d1.Eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
		if off <= ckptAt && ckptAt < end {
			if _, err := d1.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	if err := d1.Close(false); err != nil {
		t.Fatal(err)
	}

	second := newCollector()
	d2, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 3, OnResult: second.onResult},
		DurableConfig{Dir: crashDir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if d2.ResumeSeq() != int64(kill) {
		t.Fatalf("recovered engine resumes at %d, want %d", d2.ResumeSeq(), kill)
	}
	for off := kill; off < n; off += 32 {
		end := off + 32
		if end > n {
			end = n
		}
		if err := d2.Eng.SubmitBatch(f.stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	watermark := kill - int(d2.Replayed())
	if err := d2.Close(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, ok := first.pairs[int64(i)]
		if i >= watermark {
			got, ok = second.pairs[int64(i)]
		}
		if !ok {
			t.Fatalf("arrival %d never finalized (watermark=%d kill=%d)", i, watermark, kill)
		}
		if !samePairs(wantPerArrival[i], got) {
			t.Fatalf("arrival %d: got %v, reference %v", i, got, wantPerArrival[i])
		}
	}
	if !samePairs(wantFinal, d2.Eng.ResultSet()) {
		t.Fatal("final entity set differs after batched crash recovery")
	}
}

// TestTrySubmitNotBlockedByStall is the subMu contention regression test:
// with the pipeline wedged (OnResult never returns) and a blocking Submit
// parked on the full ingest queue, TrySubmit must still return ErrOverloaded
// promptly instead of queueing behind the submission lock — the old code
// held subMu across the ingest-queue send.
func TestTrySubmitNotBlockedByStall(t *testing.T) {
	f := loadFixture(t)
	release := make(chan struct{})
	var once sync.Once
	eng, err := New(f.sh, Config{
		Core: f.cfg, Shards: 1, QueueDepth: 1,
		OnResult: func(Result) {
			// Wedge the merger on the first finalized arrival; everything
			// upstream backs up behind it.
			once.Do(func() { <-release })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One feeder submits in order, so every routed batch carries exactly one
	// arrival and the wedged pipeline absorbs a fixed handful of them — far
	// fewer than parked: the feeder is guaranteed to end up stalled
	// mid-injection on the full ingest queue. (Concurrent submitters can
	// inject out of order, which lets the router release all of them as one
	// batch that never backs up.)
	const parked = 48
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range f.stream[:parked] {
			if err := eng.Submit(r); err != nil {
				t.Errorf("parked submit %d: %v", i, err)
			}
		}
	}()
	// While the stages behind the queue are still backing up one by one, the
	// queue fills and gives up a slot by turns, and a TrySubmit could land in
	// a free one. The stall has reached the feeder for good once the queue
	// has stayed full, with no further Submit getting through, for a while.
	deadline := time.Now().Add(5 * time.Second)
	for seq, still := int64(-1), 0; still < 50; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("ingest queue never filled while the pipeline was wedged")
		}
		if s := eng.seq.Load(); s != seq || len(eng.imputeIn) < cap(eng.imputeIn) {
			seq, still = s, 0
		} else {
			still++
		}
	}

	done := make(chan error, 1)
	go func() { done <- eng.TrySubmit(f.stream[parked]) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("TrySubmit under stall returned %v, want ErrOverloaded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TrySubmit blocked behind a stalled pipeline (subMu held across the queue send?)")
	}

	close(release)
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Completed; got != parked {
		t.Fatalf("drained %d arrivals, want %d", got, parked)
	}
}
