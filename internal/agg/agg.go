// Package agg holds the closed intervals the Section 5.2 aggregates are made
// of: Jaccard-distance intervals (Interval) and token-set-size intervals
// (IntInterval). prune.Bounds assembles them into the one aggregate shared by
// imputed-tuple profiles and ER-grid cells. Union is the only operation, and
// it is merge-monotone.
package agg

import "math"

// Interval is a closed float interval. The zero value is NOT empty; use
// EmptyInterval.
type Interval struct {
	Lo, Hi float64
}

// EmptyInterval returns the identity for interval union.
func EmptyInterval() Interval {
	return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// IsEmpty reports whether no value was ever added.
func (i Interval) IsEmpty() bool { return i.Lo > i.Hi }

// Extend grows the interval to include v.
func (i *Interval) Extend(v float64) {
	if v < i.Lo {
		i.Lo = v
	}
	if v > i.Hi {
		i.Hi = v
	}
}

// ExtendInterval grows the interval to include all of o.
func (i *Interval) ExtendInterval(o Interval) {
	if o.IsEmpty() {
		return
	}
	if o.Lo < i.Lo {
		i.Lo = o.Lo
	}
	if o.Hi > i.Hi {
		i.Hi = o.Hi
	}
}

// Contains reports whether v lies in the interval.
func (i Interval) Contains(v float64) bool { return v >= i.Lo && v <= i.Hi }

// IntInterval is a closed integer interval; used for token-set sizes.
type IntInterval struct {
	Lo, Hi int
}

// EmptyIntInterval returns the identity for integer interval union.
func EmptyIntInterval() IntInterval {
	return IntInterval{Lo: math.MaxInt32, Hi: math.MinInt32}
}

// IsEmpty reports whether no value was ever added.
func (i IntInterval) IsEmpty() bool { return i.Lo > i.Hi }

// Extend grows the interval to include v.
func (i *IntInterval) Extend(v int) {
	if v < i.Lo {
		i.Lo = v
	}
	if v > i.Hi {
		i.Hi = v
	}
}

// ExtendInterval grows the interval to include all of o.
func (i *IntInterval) ExtendInterval(o IntInterval) {
	if o.IsEmpty() {
		return
	}
	if o.Lo < i.Lo {
		i.Lo = o.Lo
	}
	if o.Hi > i.Hi {
		i.Hi = o.Hi
	}
}
