package bitvec

import (
	"math/rand"
	"testing"
)

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestAnyCount(t *testing.T) {
	v := New(70)
	if v.Any() {
		t.Fatal("fresh vector must have Any() == false")
	}
	if v.Count() != 0 {
		t.Fatal("fresh vector must have Count() == 0")
	}
	v.Set(3)
	v.Set(69)
	if !v.Any() {
		t.Fatal("Any() must be true after Set")
	}
	if got := v.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestOrIntersects(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(10)
	b.Set(90)
	if a.Intersects(b) {
		t.Fatal("disjoint vectors must not intersect")
	}
	a.Or(b)
	if !a.Get(10) || !a.Get(90) {
		t.Fatal("Or must keep both bits")
	}
	if !a.Intersects(b) {
		t.Fatal("a now shares bit 90 with b")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(10)
	a.Set(5)
	c := a.Clone()
	c.Set(7)
	if a.Get(7) {
		t.Fatal("Clone must be independent")
	}
	if !c.Get(5) {
		t.Fatal("Clone must copy existing bits")
	}
}

func TestReset(t *testing.T) {
	v := New(65)
	v.Set(0)
	v.Set(64)
	v.Reset()
	if v.Any() {
		t.Fatal("Reset must clear all bits")
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(1)
	v.Set(3)
	if got := v.String(); got != "0101" {
		t.Fatalf("String = %q, want 0101", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	v := New(8)
	mustPanic("Get out of range", func() { v.Get(8) })
	mustPanic("Set negative", func() { v.Set(-1) })
	mustPanic("Or width mismatch", func() { v.Or(New(9)) })
	mustPanic("Intersects width mismatch", func() { v.Intersects(New(9)) })
	mustPanic("New negative", func() { New(-1) })
}

func TestZeroWidth(t *testing.T) {
	v := New(0)
	if v.Any() || v.Count() != 0 || v.String() != "" {
		t.Fatal("zero-width vector must be empty")
	}
	v.Or(New(0)) // must not panic
}

func TestRandomizedAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 200
	v := New(n)
	ref := map[int]bool{}
	for i := 0; i < 5000; i++ {
		bit := r.Intn(n)
		if r.Intn(2) == 0 {
			v.Set(bit)
			ref[bit] = true
		} else {
			v.Clear(bit)
			delete(ref, bit)
		}
	}
	count := 0
	for i := 0; i < n; i++ {
		if v.Get(i) != ref[i] {
			t.Fatalf("bit %d: got %v, want %v", i, v.Get(i), ref[i])
		}
		if ref[i] {
			count++
		}
	}
	if v.Count() != count {
		t.Fatalf("Count = %d, want %d", v.Count(), count)
	}
	// Ones: every set bit once, ascending, and a false yield stops it.
	prev, seen := -1, 0
	for i := range v.Ones {
		if i <= prev || !ref[i] {
			t.Fatalf("Ones yielded %d after %d (set: %v)", i, prev, ref[i])
		}
		prev = i
		seen++
	}
	if seen != count {
		t.Fatalf("Ones yielded %d bits, want %d", seen, count)
	}
	for range v.Ones {
		seen++
		break
	}
	if seen != count+1 {
		t.Fatalf("Ones kept yielding after break")
	}
}
