package main

import (
	"fmt"
	"testing"

	"terids/internal/engine"
	"terids/internal/obs"
)

// newResultRing is the /results replay ring as newServer builds it, filled
// with results [base, base+n).
func newResultRing(capacity int, base, n int64) *obs.Ring[engine.Result] {
	r := obs.NewRing[engine.Result](capacity, base)
	for seq := base; seq < base+n; seq++ {
		r.Put(seq, engine.Result{Seq: seq, RID: fmt.Sprintf("r%d", seq)})
	}
	return r
}

func TestRingSinceEmpty(t *testing.T) {
	out, oldest := newResultRing(4, 0, 0).Since(0, ringChunk)
	if len(out) != 0 || oldest != 0 {
		t.Fatalf("empty ring: out=%v oldest=%d", out, oldest)
	}
}

func TestRingRetainsTail(t *testing.T) {
	// Ring of 4 after 10 results retains [6, 10).
	r := newResultRing(4, 0, 10)
	if out, oldest := r.Since(6, ringChunk); oldest != 6 || len(out) != 4 || out[0].Seq != 6 || out[3].Seq != 9 {
		t.Fatalf("Since(6): out=%v oldest=%d", out, oldest)
	}
	if out, _ := r.Since(8, ringChunk); len(out) != 2 || out[0].Seq != 8 {
		t.Fatalf("Since(8): out=%v", out)
	}
	// Older than the tail: gone (cursor below oldest), reporting the oldest
	// retained.
	if _, oldest := r.Since(5, ringChunk); oldest != 6 {
		t.Fatalf("Since(5): oldest=%d, want gone at 6", oldest)
	}
	// Future: nothing yet, not gone.
	if out, oldest := r.Since(10, ringChunk); len(out) != 0 || oldest > 10 {
		t.Fatalf("Since(10): out=%v oldest=%d", out, oldest)
	}
}

// TestRingZeroCapacityClamped is the regression test for the startup panic:
// a non-positive capacity used to make every add divide by zero in the
// seq%len(buf) index. parseConfig rejects the flag value; the ring itself
// clamps as defense in depth.
func TestRingZeroCapacityClamped(t *testing.T) {
	for _, capacity := range []int{0, -4} {
		r := newResultRing(capacity, 0, 1) // panicked before the clamp
		if out, oldest := r.Since(0, ringChunk); oldest != 0 || len(out) != 1 {
			t.Fatalf("cap %d: Since(0) = (%v, %d) after one put", capacity, out, oldest)
		}
	}
}

// TestRingSinceChunked: Since copies out at most ringChunk results per call
// (the lock is held O(chunk), never O(backlog)), with callers looping from
// the advanced cursor until they drain — in order, exactly once.
func TestRingSinceChunked(t *testing.T) {
	const n = 4 * ringChunk
	r := newResultRing(2*n, 0, n)
	cursor, calls := int64(0), 0
	for cursor < n {
		out, oldest := r.Since(cursor, ringChunk)
		if cursor < oldest {
			t.Fatalf("Since(%d) reported gone inside the retained window", cursor)
		}
		if len(out) == 0 {
			t.Fatalf("Since(%d) returned nothing with %d results still retained", cursor, n-cursor)
		}
		if len(out) > ringChunk {
			t.Fatalf("Since(%d) copied %d results under the lock, chunk bound is %d", cursor, len(out), ringChunk)
		}
		for i, res := range out {
			if res.Seq != cursor+int64(i) {
				t.Fatalf("chunked read out of order: got seq %d at offset %d of cursor %d", res.Seq, i, cursor)
			}
		}
		cursor += int64(len(out))
		calls++
	}
	if calls < n/ringChunk {
		t.Fatalf("backlog of %d drained in %d calls; chunking is not bounding the copies", n, calls)
	}
}

// TestRingBacklogDrainBounded is the contention contract behind the merger
// stall: a slow /results reader crawling a full backlog never holds the ring
// lock for more than one ringChunk copy, so the merger's Put is never queued
// behind a full-backlog copy. Draining 65 536 results therefore takes
// exactly ⌈backlog/ringChunk⌉ Since calls, each copying 1..ringChunk.
func TestRingBacklogDrainBounded(t *testing.T) {
	const backlog = 1 << 16
	r := newResultRing(backlog, 0, backlog)
	cursor, calls := int64(0), 0
	for cursor < backlog {
		out, oldest := r.Since(cursor, ringChunk)
		if cursor < oldest {
			t.Fatalf("Since(%d) reported gone inside the retained window", cursor)
		}
		if len(out) == 0 || len(out) > ringChunk {
			t.Fatalf("Since(%d) copied %d results under the lock, want 1..%d", cursor, len(out), ringChunk)
		}
		cursor += int64(len(out))
		calls++
	}
	if want := (backlog + ringChunk - 1) / ringChunk; calls != want {
		t.Fatalf("backlog of %d drained in %d calls, want exactly %d", backlog, calls, want)
	}
}

func TestRingBaseAfterRestore(t *testing.T) {
	// A server restored at watermark 100 never saw results 0..99.
	r := newResultRing(8, 100, 3)
	if _, oldest := r.Since(50, ringChunk); oldest != 100 {
		t.Fatalf("pre-restore seqs must be gone: oldest=%d, want 100", oldest)
	}
	if out, _ := r.Since(100, ringChunk); len(out) != 3 {
		t.Fatalf("Since(100): out=%v", out)
	}
}
