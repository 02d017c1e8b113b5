// Package agg defines the aggregate summaries attached to ER-grid cells and
// imputed tuples' pruning profiles (Section 5.2): a keyword bitvector,
// per-attribute/per-pivot Jaccard-distance intervals, and per-attribute
// token-set-size intervals. All summaries are merge-monotone.
package agg

import (
	"math"

	"terids/internal/bitvec"
)

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

// Of builds an interval spanning the given values.
func Of(vals ...float64) Interval {
	out := EmptyInterval()
	for _, v := range vals {
		out.Extend(v)
	}
	return out
}

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

// Summary is the aggregate of Sections 5.1/5.2: keyword vector, distance
// intervals per (attribute, pivot), and size intervals per attribute.
// Pivot index 0 is the main pivot; indexes >= 1 are auxiliary pivots.
type Summary struct {
	// KW ORs the keyword vectors of everything summarized.
	KW bitvec.Vector
	// Dist[x][a] bounds dist(value, piv_a[A_x]) over all summarized values
	// of attribute x.
	Dist [][]Interval
	// Size[x] bounds |T(value)| over all summarized values of attribute x.
	Size []IntInterval
}

// NewSummary allocates an empty summary for d attributes, nPiv pivots per
// attribute (>= 1; index 0 = main), and nKW keywords.
func NewSummary(d, nPiv, nKW int) *Summary {
	s := &Summary{
		KW:   bitvec.New(nKW),
		Dist: make([][]Interval, d),
		Size: make([]IntInterval, d),
	}
	for x := 0; x < d; x++ {
		s.Dist[x] = make([]Interval, nPiv)
		for a := 0; a < nPiv; a++ {
			s.Dist[x][a] = EmptyInterval()
		}
		s.Size[x] = EmptyIntInterval()
	}
	return s
}

// Merge folds o into s.
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	s.KW.Or(o.KW)
	for x := range s.Dist {
		for a := range s.Dist[x] {
			s.Dist[x][a].ExtendInterval(o.Dist[x][a])
		}
		s.Size[x].ExtendInterval(o.Size[x])
	}
}

// Clone returns an independent copy.
func (s *Summary) Clone() *Summary {
	out := &Summary{
		KW:   s.KW.Clone(),
		Dist: make([][]Interval, len(s.Dist)),
		Size: append([]IntInterval(nil), s.Size...),
	}
	for x := range s.Dist {
		out.Dist[x] = append([]Interval(nil), s.Dist[x]...)
	}
	return out
}
