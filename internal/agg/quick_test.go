package agg

import (
	"testing"
	"testing/quick"
)

// TestQuickIntervalUnionLaws checks the algebraic laws interval aggregates
// rely on: extension is commutative, associative, idempotent, and monotone
// (an extended interval always contains its inputs).
func TestQuickIntervalUnionLaws(t *testing.T) {
	mk := func(a, b float64) Interval {
		iv := EmptyInterval()
		iv.Extend(a)
		iv.Extend(b)
		return iv
	}
	comm := func(a1, a2, b1, b2 float64) bool {
		x, y := mk(a1, a2), mk(b1, b2)
		xy := x
		xy.ExtendInterval(y)
		yx := y
		yx.ExtendInterval(x)
		return xy == yx
	}
	if err := quick.Check(comm, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c, d, e, f float64) bool {
		x, y, z := mk(a, b), mk(c, d), mk(e, f)
		l := x
		l.ExtendInterval(y)
		l.ExtendInterval(z)
		yz := y
		yz.ExtendInterval(z)
		r := x
		r.ExtendInterval(yz)
		return l == r
	}
	if err := quick.Check(assoc, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	idem := func(a, b float64) bool {
		x := mk(a, b)
		y := x
		y.ExtendInterval(x)
		return x == y
	}
	if err := quick.Check(idem, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	mono := func(a, b, v float64) bool {
		x := mk(a, b)
		x.Extend(v)
		return x.Contains(v) && x.Contains(a) && x.Contains(b)
	}
	if err := quick.Check(mono, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
