package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestQuickWindowIsLastW: after any push sequence, the window holds exactly
// the last min(n, w) records in arrival order, and evictions happen in FIFO
// order.
func TestQuickWindowIsLastW(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		w := 1 + r.Intn(10)
		n := r.Intn(40)
		win := mustWindow(w)
		var pushed []string
		var evicted []string
		for i := 0; i < n; i++ {
			rec := rec(fmt.Sprintf("t%d-%d", trial, i), 0, int64(i))
			pushed = append(pushed, rec.RID)
			if exp := win.Push(rec); exp != nil {
				evicted = append(evicted, exp.RID)
			}
		}
		snap := win.Export()
		start := n - w
		if start < 0 {
			start = 0
		}
		want := pushed[start:]
		if len(snap) != len(want) {
			t.Fatalf("trial %d: window has %d records, want %d", trial, len(snap), len(want))
		}
		for i := range want {
			if snap[i].RID != want[i] {
				t.Fatalf("trial %d: window[%d] = %s, want %s", trial, i, snap[i].RID, want[i])
			}
		}
		// Evicted = everything before the window, in order.
		if len(evicted) != start {
			t.Fatalf("trial %d: %d evictions, want %d", trial, len(evicted), start)
		}
		for i := 0; i < start; i++ {
			if evicted[i] != pushed[i] {
				t.Fatalf("trial %d: eviction %d = %s, want %s (FIFO)", trial, i, evicted[i], pushed[i])
			}
		}
	}
}
