package wal

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTailerFollowsAppends: a tailer over a live log sees every durable
// entry across multiple passes, in order, without ever opening the log.
func TestTailerFollowsAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tl, err := OpenTail(dir)
	if err != nil {
		t.Fatal(err)
	}

	var got []Entry
	collect := func(e Entry) error { got = append(got, e); return nil }

	next, err := tl.Replay(0, collect)
	if err != nil || next != 0 || len(got) != 0 {
		t.Fatalf("empty dir: next=%d err=%v entries=%d", next, err, len(got))
	}

	appendN(t, l, 0, 30)
	next, err = tl.Replay(next, collect)
	if err != nil {
		t.Fatal(err)
	}
	if next != 30 || len(got) != 30 {
		t.Fatalf("first pass: next=%d entries=%d, want 30/30", next, len(got))
	}

	appendN(t, l, 30, 20)
	next, err = tl.Replay(next, collect)
	if err != nil {
		t.Fatal(err)
	}
	if next != 50 || len(got) != 50 {
		t.Fatalf("second pass: next=%d entries=%d, want 50/50", next, len(got))
	}
	for i, e := range got {
		if e.Seq != int64(i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}

	// A pass that delivers nothing still reports the frontier.
	fr, err := tl.Replay(0, func(Entry) error { return nil })
	if err != nil || fr != 50 {
		t.Fatalf("Replay(0) frontier = %d, %v; want 50", fr, err)
	}
}

// TestTailerTruncationSignal: a cursor below the oldest retained segment
// reports ErrTruncated — the restart-from-checkpoint signal — not a silent
// resume or an fd error.
func TestTailerTruncationSignal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 60)
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("want >=3 segments for the test, got %d", st.Segments)
	}
	if err := l.TruncateBefore(40); err != nil {
		t.Fatal(err)
	}
	first := l.Stats().FirstSeq
	if first == 0 {
		t.Fatal("truncation removed nothing")
	}

	tl, err := OpenTail(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tl.Replay(0, func(Entry) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("replay below retained = %v, want ErrTruncated", err)
	}
	// From the retained frontier it works.
	var n int
	next, err := tl.Replay(first, func(Entry) error { n++; return nil })
	if err != nil || next != 60 || n != int(60-first) {
		t.Fatalf("replay from %d: next=%d n=%d err=%v", first, next, n, err)
	}
}

// TestReplayTruncatedRangeError: Log.Replay wraps its own below-retained
// error in ErrTruncated so callers can branch on it.
func TestReplayTruncatedRangeError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 60)
	if err := l.TruncateBefore(40); err != nil {
		t.Fatal(err)
	}
	err = l.Replay(0, func(Entry) error { return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Replay(0) after truncate = %v, want ErrTruncated", err)
	}
}

// TestTruncateUnderTailHammer is the satellite -race test: one goroutine
// appends, one truncates aggressively behind a moving watermark, and
// several replay concurrently from cursors at or above the already-applied
// frontier. Every replay must end cleanly or with ErrTruncated — never a
// raw fd error, never a contiguity gap — and entries that are delivered
// must be dense from the requested cursor.
func TestTruncateUnderTailHammer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 3000
	var appended atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := int64(0); seq < total; seq++ {
			if err := l.Append(testEntry(seq)); err != nil {
				t.Errorf("append %d: %v", seq, err)
				return
			}
			appended.Store(seq + 1)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if hi := appended.Load(); hi > 0 {
				if err := l.TruncateBefore(hi); err != nil {
					t.Errorf("truncate: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Log.Replay tailers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := appended.Load()
				from := hi - rng.Int63n(200+1)
				if from < 0 {
					from = 0
				}
				expect := from
				err := l.Replay(from, func(e Entry) error {
					if e.Seq != expect {
						t.Errorf("Log.Replay gap: got seq %d, expected %d", e.Seq, expect)
					}
					expect = e.Seq + 1
					return nil
				})
				if err != nil && !errors.Is(err, ErrTruncated) {
					t.Errorf("Log.Replay(%d): %v", from, err)
					return
				}
			}
		}(int64(w))
	}

	// Read-only Tailer tailers (the follower's steady state).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tl, err := OpenTail(dir)
			if err != nil {
				t.Errorf("OpenTail: %v", err)
				return
			}
			rng := rand.New(rand.NewSource(100 + seed))
			cursor := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				expect := cursor
				next, err := tl.Replay(cursor, func(e Entry) error {
					if e.Seq != expect {
						t.Errorf("Tailer gap: got seq %d, expected %d", e.Seq, expect)
					}
					expect = e.Seq + 1
					return nil
				})
				switch {
				case errors.Is(err, ErrTruncated):
					// Restart-from-checkpoint signal: jump to the retained
					// frontier like a follower reloading a checkpoint would.
					cursor = appended.Load()
				case err != nil:
					t.Errorf("Tailer.Replay(%d): %v", cursor, err)
					return
				default:
					cursor = next
					if rng.Intn(4) == 0 {
						time.Sleep(time.Millisecond)
					}
				}
			}
		}(int64(w))
	}

	// Let the appender finish, then stop the churn.
	for appended.Load() < total {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestWriterLockExcludesSecondOpen: two live writers on one directory are
// refused, and the lock reads as writer-liveness for followers.
func TestWriterLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	if WriterAlive(dir) {
		t.Fatal("empty dir reports a live writer")
	}
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if !WriterAlive(dir) {
		t.Fatal("open log not reported as a live writer")
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if WriterAlive(dir) {
		t.Fatal("closed log still reported as a live writer")
	}
	// The lock is reacquirable after release.
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	l2.Close()
}
