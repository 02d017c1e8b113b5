package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"terids/internal/wal"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerTailsWriterAndPromotes is the end-to-end replica contract:
// a follower tailing a live writer's WAL converges to byte-identical
// results; promotion is refused while the writer holds the flock and the
// follower keeps following; once the writer is gone, promotion seals at
// the WAL frontier, attaches the log, and ingest resumes on the promoted
// handle with the merged stream still byte-identical to an uninterrupted
// single-threaded run. Run under -race in CI.
func TestFollowerTailsWriterAndPromotes(t *testing.T) {
	f := loadFixture(t)
	wantPerArrival, wantFinal := runProcessor(t, f)
	n := len(f.stream)
	cut := 2 * n / 3
	dir := t.TempDir()

	w, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 2},
		DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	fol, err := OpenFollower(f.sh, Config{Core: f.cfg, Shards: 2, OnResult: col.onResult},
		DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range f.stream[:cut] {
		if err := w.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "follower caught up to the writer", func() bool {
		return fol.Eng.Completed() == int64(cut) && fol.Lag() == 0 &&
			w.Eng.Completed() == int64(cut)
	})
	if !fol.CaughtUp() {
		t.Fatal("follower at zero lag does not report CaughtUp")
	}
	if !samePairs(w.Eng.ResultSet(), fol.Eng.ResultSet()) {
		t.Fatal("follower entity set differs from the writer's at the same watermark")
	}

	// Taking over while the writer is alive must be refused — the flock is
	// the writer's liveness — and the refusal must not stop the tail loop.
	if err := fol.Promote(); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("promote with a live writer = %v, want wal.ErrLocked", err)
	}
	if !fol.WriterAlive() {
		t.Fatal("live writer not reported by the liveness probe")
	}
	more := cut + (n-cut)/2
	for _, r := range f.stream[cut:more] {
		if err := w.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "follower resumed tailing after refused promotion", func() bool {
		return fol.Eng.Completed() == int64(more) && fol.Lag() == 0
	})

	// The writer dies (a clean Close releases the flock exactly like a
	// SIGKILL would — the kernel drops it either way).
	if err := w.Close(false); err != nil {
		t.Fatal(err)
	}
	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	d2 := fol // promotion flips the same handle
	if d2.ResumeSeq() != int64(more) {
		t.Fatalf("promoted writer resumes at %d, want %d", d2.ResumeSeq(), more)
	}
	if st, _ := fol.FollowerStats(); !st.Promoted {
		t.Fatal("stats do not report the promotion")
	}
	// Ingest resumes on the same engine, now on the durable path.
	for _, r := range f.stream[more:] {
		if err := d2.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := d2.Log.Stats().NextSeq; got != int64(n) {
		t.Fatalf("wal frontier %d after resumed ingest, want %d", got, n)
	}
	if err := d2.Close(true); err != nil {
		t.Fatal(err)
	}

	// The one merged stream — tailed, then promoted-live — must be
	// byte-identical to the uninterrupted reference, every arrival.
	for i := 0; i < n; i++ {
		got, ok := col.pairs[int64(i)]
		if !ok {
			t.Fatalf("arrival %d never finalized on the follower", i)
		}
		if !samePairs(wantPerArrival[i], got) {
			t.Fatalf("arrival %d: follower emitted %v, reference %v", i, got, wantPerArrival[i])
		}
	}
	if !samePairs(wantFinal, d2.Eng.ResultSet()) {
		t.Fatal("final entity set differs after tail + promote + resumed ingest")
	}
}

// TestFollowerLiveDeltaCatchUp is the live-apply convergence property test:
// when the WAL is truncated below the follower's cursor, the follower must
// catch up by applying the delta-checkpoint chain onto its RUNNING engine
// — incrementally from the checkpoint state it already holds in memory —
// and converge to results byte-identical to a cold OpenDurable restore of
// the same directory. The follower is booted at K=3 over a K=2 writer: K is
// fixed at boot, so it stays 3 through the catch-up and the promotion. Run
// under -race in CI.
func TestFollowerLiveDeltaCatchUp(t *testing.T) {
	f := loadFixture(t)
	_, wantFinal := runProcessor(t, f)
	n := len(f.stream)
	q1, q2, q3 := n/4, n/2, 3*n/4
	dir := t.TempDir()

	w, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 2}, DurableConfig{
		Dir: dir, NoSync: true, SegmentBytes: 1024, KeepCheckpoints: 4, DeltaEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(lo, hi int) {
		t.Helper()
		for _, r := range f.stream[lo:hi] {
			if err := w.Eng.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ckpt := func() {
		t.Helper()
		if _, err := w.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}

	submit(0, q1)
	ckpt() // full snapshot at q1 — the follower's boot state

	// The gate stalls the tail loop: the test holds the write lock while
	// the writer races ahead and truncates, releasing it to let exactly the
	// catch-up pass run.
	var gate sync.RWMutex
	gate.Lock()
	fol, err := openFollower(f.sh, Config{Core: f.cfg, Shards: 3}, DurableConfig{Dir: dir, NoSync: true},
		func() { gate.RLock(); gate.RUnlock() }) //nolint:staticcheck // empty critical section is the point
	if err != nil {
		t.Fatal(err)
	}
	folStats := func() FollowerStats { st, _ := fol.FollowerStats(); return st }
	if fol.Eng.Completed() != int64(q1) {
		t.Fatalf("follower booted at %d, want checkpoint watermark %d", fol.Eng.Completed(), q1)
	}

	submit(q1, q2)
	ckpt() // delta q1→q2
	submit(q2, q3)
	ckpt() // delta q2→q3
	// Aggressive retention: drop the WAL prefix the stalled follower still
	// needs, so its next pass gets ErrTruncated instead of entries.
	if err := w.Log.TruncateBefore(int64(q3)); err != nil {
		t.Fatal(err)
	}
	if first := w.Log.Stats().FirstSeq; first <= int64(q1) {
		t.Fatalf("truncation kept seq %d, test needs the follower cursor %d dropped", first, q1)
	}

	gate.Unlock()
	// ApplyCheckpoint publishes the new watermark before catchUp counts the
	// catch-up, so the counter is part of the awaited state.
	waitUntil(t, "delta-chain catch-up onto the live engine", func() bool {
		return folStats().Catchups >= 1 && fol.Eng.Completed() >= int64(q3) && fol.Lag() == 0
	})
	st := folStats()
	if st.Catchups < 1 {
		t.Fatalf("no checkpoint catch-up recorded: %+v", st)
	}
	if st.IncrementalCatchups < 1 {
		t.Fatalf("catch-up did not use the incremental delta chain (base was in memory): %+v", st)
	}
	if got := fol.Eng.Stats().Shards; got != 3 {
		t.Fatalf("follower took K=%d from the K=2 writer's checkpoints, want its own 3", got)
	}

	// Steady-state tailing resumes after the jump.
	submit(q3, n)
	waitUntil(t, "follower tail after catch-up", func() bool {
		return fol.Eng.Completed() == int64(n) && fol.Lag() == 0
	})
	if !samePairs(wantFinal, fol.Eng.ResultSet()) {
		t.Fatal("follower entity set differs from the uninterrupted reference")
	}

	// Convergence: the live-applied follower must be byte-identical to a
	// cold restore of the same directory.
	if err := w.Close(false); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenDurable(f.sh, Config{Core: f.cfg},
		DurableConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ResumeSeq() != int64(n) {
		t.Fatalf("cold restore resumes at %d, want %d", cold.ResumeSeq(), n)
	}
	waitUntil(t, "cold restore drain", func() bool { return cold.Eng.Completed() == int64(n) })
	if !samePairs(cold.Eng.ResultSet(), fol.Eng.ResultSet()) {
		t.Fatal("live delta catch-up diverged from cold OpenDurable restore")
	}
	if err := cold.Close(false); err != nil {
		t.Fatal(err)
	}

	// Promotion after a catch-up: both stats blocks keep naming the
	// checkpoint the process booted from, while the promoted writer descends
	// from the state the catch-up installed.
	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	p := fol
	if got, want := p.Stats().RecoveredFrom, folStats().RecoveredFrom; got != want || want == "" {
		t.Fatalf("promoted writer reports recovered_from %q, its follower %q", got, want)
	}
	if got := p.RestoredCheckpoint().Seq; got != int64(q3) {
		t.Fatalf("promoted writer descends from checkpoint seq %d, want the catch-up's %d", got, q3)
	}
	if got := p.Eng.Stats().Shards; got != 3 {
		t.Fatalf("promoted writer runs at K=%d, want the follower's boot-time 3", got)
	}
	if err := p.Close(false); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerDeepReplayMatchesWriter: deep replay on a following handle —
// read through the tailer, bounded by the last pass's frontier — regenerates
// exactly what the writer's handle does, from below the checkpoint the
// follower booted from.
func TestFollowerDeepReplayMatchesWriter(t *testing.T) {
	f := loadFixture(t)
	n := len(f.stream)
	half := n / 2
	dir := t.TempDir()

	w, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 2}, DurableConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close(false)
	for _, r := range f.stream[:half] {
		if err := w.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[half:] {
		if err := w.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}

	fol, err := OpenFollower(f.sh, Config{Core: f.cfg, Shards: 2}, DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close(false)
	if got := fol.ResumeSeq(); got != int64(half) {
		t.Fatalf("follower booted at seq %d, want the checkpoint's %d", got, half)
	}
	waitUntil(t, "follower caught up to the writer", func() bool {
		return fol.Eng.Completed() == int64(n) && fol.Lag() == 0
	})
	if reach, ok := fol.DeepReach(); !ok || reach != 0 {
		t.Fatalf("follower deep-replay reach = %d, %v; want 0, true", reach, ok)
	}

	want, wantHigh := deepCollect(t, w, 0, 0)
	got, gotHigh := deepCollect(t, fol, 0, 0)
	if wantHigh != int64(n-1) || gotHigh != wantHigh {
		t.Fatalf("deep replay reached seq %d on the follower, %d on the writer, want %d", gotHigh, wantHigh, n-1)
	}
	for seq, wr := range want {
		gr := got[seq]
		if gr.RID != wr.RID || gr.Rejected != wr.Rejected ||
			strings.Join(gr.Expired, ",") != strings.Join(wr.Expired, ",") || !samePairs(wr.Pairs, gr.Pairs) {
			t.Fatalf("seq %d: follower regenerated %+v, writer %+v", seq, gr, wr)
		}
	}
	if st := fol.Stats(); st.DeepReplays != 1 {
		t.Fatalf("follower counts %d deep replays, want 1", st.DeepReplays)
	}
}
