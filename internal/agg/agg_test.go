package agg

import (
	"testing"
)

func TestInterval(t *testing.T) {
	i := EmptyInterval()
	if !i.IsEmpty() {
		t.Fatal("EmptyInterval must be empty")
	}
	i.Extend(0.5)
	if i.IsEmpty() || i.Lo != 0.5 || i.Hi != 0.5 {
		t.Fatalf("after Extend: %+v", i)
	}
	i.Extend(0.2)
	i.Extend(0.8)
	if i.Lo != 0.2 || i.Hi != 0.8 {
		t.Fatalf("after extends: %+v", i)
	}
	if !i.Contains(0.5) || i.Contains(0.9) {
		t.Fatal("Contains wrong")
	}
	var j Interval
	j = EmptyInterval()
	j.ExtendInterval(i)
	if j != i {
		t.Fatalf("ExtendInterval: %+v != %+v", j, i)
	}
	j.ExtendInterval(EmptyInterval()) // no-op
	if j != i {
		t.Fatal("extending by empty must be a no-op")
	}
	if got := Of(0.3, 0.1, 0.7); got.Lo != 0.1 || got.Hi != 0.7 {
		t.Fatalf("Of = %+v", got)
	}
}

func TestIntInterval(t *testing.T) {
	i := EmptyIntInterval()
	if !i.IsEmpty() {
		t.Fatal("EmptyIntInterval must be empty")
	}
	i.Extend(5)
	i.Extend(2)
	i.Extend(9)
	if i.Lo != 2 || i.Hi != 9 {
		t.Fatalf("IntInterval = %+v", i)
	}
	j := EmptyIntInterval()
	j.ExtendInterval(i)
	if j != i {
		t.Fatal("ExtendInterval failed")
	}
	j.ExtendInterval(EmptyIntInterval())
	if j != i {
		t.Fatal("extending by empty must be a no-op")
	}
}

func TestSummaryMerge(t *testing.T) {
	a := NewSummary(2, 2, 4)
	b := NewSummary(2, 2, 4)
	a.KW.Set(0)
	b.KW.Set(3)
	a.Dist[0][0].Extend(0.1)
	b.Dist[0][0].Extend(0.9)
	a.Size[1].Extend(3)
	b.Size[1].Extend(7)
	a.Merge(b)
	if !a.KW.Get(0) || !a.KW.Get(3) {
		t.Fatal("KW merge failed")
	}
	if a.Dist[0][0].Lo != 0.1 || a.Dist[0][0].Hi != 0.9 {
		t.Fatalf("Dist merge = %+v", a.Dist[0][0])
	}
	if a.Size[1].Lo != 3 || a.Size[1].Hi != 7 {
		t.Fatalf("Size merge = %+v", a.Size[1])
	}
	// Untouched slots stay empty.
	if !a.Dist[1][1].IsEmpty() || !a.Size[0].IsEmpty() {
		t.Fatal("untouched slots must stay empty")
	}
	a.Merge(nil) // must not panic
}

func TestSummaryClone(t *testing.T) {
	a := NewSummary(1, 1, 2)
	a.KW.Set(1)
	a.Dist[0][0].Extend(0.4)
	a.Size[0].Extend(2)
	c := a.Clone()
	c.KW.Set(0)
	c.Dist[0][0].Extend(0.9)
	c.Size[0].Extend(99)
	if a.KW.Get(0) || a.Dist[0][0].Hi != 0.4 || a.Size[0].Hi != 2 {
		t.Fatal("Clone must be independent")
	}
}
