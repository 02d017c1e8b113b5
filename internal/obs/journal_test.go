package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestJournalRecordAndSince(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Record("checkpoint", fmt.Sprintf("cp %d", i), map[string]any{"i": i})
	}
	evs := j.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type != "checkpoint" {
			t.Fatalf("event %d has type %q", i, ev.Type)
		}
	}
	if got := j.Since(3); len(got) != 2 || got[0].Seq != 3 {
		t.Fatalf("Since(3) = %+v", got)
	}
	if got := j.Since(5); got != nil {
		t.Fatalf("Since(past end) = %+v, want nil", got)
	}
	if j.NextSeq() != 5 {
		t.Fatalf("NextSeq = %d, want 5", j.NextSeq())
	}
}

func TestJournalOverwritesOldest(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record("e", "", nil)
	}
	evs := j.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("retained seqs %d..%d, want 6..9", evs[0].Seq, evs[3].Seq)
	}
	// A cursor pointing into overwritten history starts at the oldest
	// retained event.
	if got := j.Since(2); len(got) != 4 || got[0].Seq != 6 {
		t.Fatalf("Since(2) = %+v", got)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record("x", "", nil) // must not panic
	if j.Snapshot() != nil || j.NextSeq() != 0 || j.OldestSeq() != 0 {
		t.Fatal("nil journal should be empty")
	}
}

func TestJournalOldestSeq(t *testing.T) {
	j := NewJournal(4)
	if j.OldestSeq() != 0 {
		t.Fatalf("empty journal OldestSeq = %d, want 0", j.OldestSeq())
	}
	for i := 0; i < 3; i++ {
		j.Record("e", "", nil)
	}
	if j.OldestSeq() != 0 {
		t.Fatalf("unwrapped OldestSeq = %d, want 0", j.OldestSeq())
	}
	for i := 0; i < 7; i++ {
		j.Record("e", "", nil)
	}
	// 10 recorded, 4 retained: seqs 6..9 survive.
	if j.OldestSeq() != 6 {
		t.Fatalf("wrapped OldestSeq = %d, want 6", j.OldestSeq())
	}
	if evs := j.Snapshot(); evs[0].Seq != j.OldestSeq() {
		t.Fatalf("Snapshot oldest %d != OldestSeq %d", evs[0].Seq, j.OldestSeq())
	}
}

func TestJournalWriteNDJSON(t *testing.T) {
	j := NewJournal(8)
	j.Record("checkpoint", "checkpoint persisted", map[string]any{"seq": 128})
	j.Record("follower_promote", "", map[string]any{"k": 4})
	var buf bytes.Buffer
	if err := j.WriteNDJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if ev.Seq != int64(lines) {
			t.Fatalf("line %d has seq %d", lines, ev.Seq)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", lines)
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Record("c", "", nil)
				j.Since(0)
			}
		}()
	}
	wg.Wait()
	if j.NextSeq() != writers*per {
		t.Fatalf("NextSeq = %d, want %d", j.NextSeq(), writers*per)
	}
	evs := j.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
