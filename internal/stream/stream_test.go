package stream

import (
	"fmt"
	"testing"

	"terids/internal/tuple"
)

var testSchema = tuple.MustSchema("a")

func rec(rid string, stream int, seq int64) *tuple.Record {
	return tuple.MustRecord(testSchema, rid, stream, seq, []string{"v " + rid})
}

func mustWindow(w int) *Window {
	win, err := NewWindow(w)
	if err != nil {
		panic(err)
	}
	return win
}

func TestInterleave(t *testing.T) {
	a := []*tuple.Record{rec("a1", 0, 0), rec("a2", 0, 4)}
	b := []*tuple.Record{rec("b1", 1, 1), rec("b2", 1, 0)}
	got := Interleave(a, b)
	want := []string{"a1", "b2", "b1", "a2"} // seq 0 ties broken by stream
	for i, r := range got {
		if r.RID != want[i] {
			t.Fatalf("Interleave order %d = %s, want %s", i, r.RID, want[i])
		}
	}
}

func TestWindowPushEvict(t *testing.T) {
	w := mustWindow(3)
	if len(w.Export()) != 0 {
		t.Fatal("fresh window state wrong")
	}
	for i := 0; i < 3; i++ {
		if exp := w.Push(rec(fmt.Sprintf("r%d", i), 0, int64(i))); exp != nil {
			t.Fatalf("push %d evicted %v before full", i, exp)
		}
	}
	exp := w.Push(rec("r3", 0, 3))
	if exp == nil || exp.RID != "r0" {
		t.Fatalf("expected r0 evicted, got %v", exp)
	}
	exp = w.Push(rec("r4", 0, 4))
	if exp == nil || exp.RID != "r1" {
		t.Fatalf("expected r1 evicted, got %v", exp)
	}
	live := w.Export()
	want := []string{"r2", "r3", "r4"}
	if len(live) != 3 {
		t.Fatalf("Export len = %d", len(live))
	}
	for i, r := range live {
		if r.RID != want[i] {
			t.Fatalf("Export()[%d] = %s, want %s", i, r.RID, want[i])
		}
	}
}

func TestWindowEachEarlyStop(t *testing.T) {
	w := mustWindow(5)
	for i := 0; i < 5; i++ {
		w.Push(rec(fmt.Sprintf("r%d", i), 0, int64(i)))
	}
	n := 0
	w.Each(func(*tuple.Record) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestWindowSizeOne(t *testing.T) {
	w := mustWindow(1)
	if exp := w.Push(rec("a", 0, 0)); exp != nil {
		t.Fatal("first push must not evict")
	}
	if exp := w.Push(rec("b", 0, 1)); exp == nil || exp.RID != "a" {
		t.Fatalf("w=1 must evict previous, got %v", exp)
	}
}

func TestNewWindowError(t *testing.T) {
	if _, err := NewWindow(0); err == nil {
		t.Fatal("window size 0 must fail")
	}
}

func TestMultiWindow(t *testing.T) {
	mw, err := NewMultiWindow(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := mw.Push(rec(fmt.Sprintf("a%d", i), 0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mw.Push(rec("b0", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if n := len(mw.Export()); n != 3 {
		t.Fatalf("%d live tuples, want 3", n)
	}
	exp, err := mw.Push(rec("a2", 0, 3))
	if err != nil || exp == nil || exp.RID != "a0" {
		t.Fatalf("expected a0 evicted from stream 0, got %v, %v", exp, err)
	}
	// Stream 1 untouched.
	if n := len(mw.wins[1].Export()); n != 1 {
		t.Fatalf("stream 1 window holds %d tuples, want 1 (unaffected)", n)
	}
	if _, err := mw.Push(rec("x", 7, 9)); err == nil {
		t.Fatal("bad stream id must error")
	}
	n := 0
	mw.Each(func(*tuple.Record) bool { n++; return true })
	if n != 3 {
		t.Fatalf("Each visited %d, want 3", n)
	}
	n = 0
	mw.Each(func(*tuple.Record) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each early stop visited %d, want 1", n)
	}
}

func TestWindowExportImport(t *testing.T) {
	w := mustWindow(3)
	for i := 0; i < 5; i++ {
		w.Push(rec(fmt.Sprintf("r%d", i), 0, int64(i)))
	}
	exp := w.Export()
	if len(exp) != 3 || exp[0].RID != "r2" || exp[2].RID != "r4" {
		t.Fatalf("export %v", exp)
	}

	w2 := mustWindow(3)
	if err := w2.Import(exp); err != nil {
		t.Fatal(err)
	}
	// The restored window evicts in the same order as the original.
	if e := w2.Push(rec("r5", 0, 5)); e == nil || e.RID != "r2" {
		t.Fatalf("restored window evicted %v, want r2", e)
	}

	if err := w2.Import(exp); err == nil {
		t.Fatal("import into non-empty window must fail")
	}
	small := mustWindow(2)
	if err := small.Import(exp); err == nil {
		t.Fatal("import beyond capacity must fail")
	}
}

func TestMultiWindowExportImport(t *testing.T) {
	m, err := NewMultiWindow(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []*tuple.Record{
		rec("a1", 0, 0), rec("b1", 1, 1), rec("a2", 0, 2), rec("b2", 1, 3),
	}
	for _, r := range arrivals {
		if _, err := m.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	exp := m.Export()
	if len(exp) != 4 {
		t.Fatalf("export has %d records, want 4", len(exp))
	}

	m2, err := NewMultiWindow(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Import(exp); err != nil {
		t.Fatal(err)
	}
	if n0, n1 := len(m2.wins[0].Export()), len(m2.wins[1].Export()); n0 != 2 || n1 != 2 {
		t.Fatalf("imported layout %d/%d, want 2/2", n0, n1)
	}
	// Per-stream eviction order survives the roundtrip: one push fills
	// stream 0's window (cap 3), the next evicts the oldest resident.
	if e, _ := m2.Push(rec("a3", 0, 4)); e != nil {
		t.Fatalf("fill push evicted %v", e)
	}
	e, _ := m2.Push(rec("a4", 0, 5))
	if e == nil || e.RID != "a1" {
		t.Fatalf("restored multi-window evicted %v, want a1", e)
	}

	if err := m2.Import(exp); err == nil {
		t.Fatal("import into non-empty multi-window must fail")
	}
	bad := []*tuple.Record{rec("x", 5, 0)}
	m3, _ := NewMultiWindow(2, 3)
	if err := m3.Import(bad); err == nil {
		t.Fatal("import of an out-of-range stream must fail")
	}
	overflow := []*tuple.Record{
		rec("o1", 0, 0), rec("o2", 0, 1), rec("o3", 0, 2), rec("o4", 0, 3),
	}
	m4, _ := NewMultiWindow(2, 3)
	if err := m4.Import(overflow); err == nil {
		t.Fatal("import overflowing a stream window must fail")
	}
}
