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
