// Windowed histogram statistics for the SLO engine. Histograms are
// cumulative since process start, but objectives are judged over sliding
// windows ("p99 over the last 5 minutes"). The bridge is HistSnapshot: a
// cheap copy of a histogram's bucket vector taken periodically, where the
// difference of two cumulative snapshots is exactly the distribution of
// the observations that landed between them. Quantile and FractionAbove
// then answer window-scoped questions with the same within-bucket linear
// interpolation the live histogram uses, so /slo and /metrics never
// disagree about what a p99 means.

package obs

import "math"

// HistSnapshot is a point-in-time copy of a histogram's state. Snapshots
// of the same histogram may be subtracted to obtain the distribution over
// the interval between them.
type HistSnapshot struct {
	// Buckets holds cumulative-since-start per-bucket counts (same log2
	// layout as Histogram).
	Buckets [histBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of raw observations.
	Sum int64
	// Scale divides raw units for human-facing rendering (1e9 for
	// nanosecond latencies exposed as seconds).
	Scale float64
}

// Snapshot copies the histogram's current state. Buckets are read without
// a global lock, so a snapshot taken during concurrent Observe calls may
// be off by the in-flight observations — irrelevant at window granularity.
// Count is read first: Observe bumps the bucket before the count, so the
// buckets read afterwards always cover Count and a quantile's rank is
// always reached.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	for i := 0; i < histBuckets; i++ {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Scale = h.scale
	return s
}

// Sub returns the distribution of observations recorded after old and up
// to s (both snapshots of the same histogram, s taken later). Torn reads
// can make individual deltas transiently negative; those clamp to zero.
func (s HistSnapshot) Sub(old HistSnapshot) HistSnapshot {
	out := HistSnapshot{Scale: s.Scale}
	var total uint64
	for i := 0; i < histBuckets; i++ {
		if s.Buckets[i] > old.Buckets[i] {
			out.Buckets[i] = s.Buckets[i] - old.Buckets[i]
		}
		total += out.Buckets[i]
	}
	out.Count = total
	if s.Sum > old.Sum {
		out.Sum = s.Sum - old.Sum
	}
	return out
}

// Quantile extracts quantile q in (0,1] in raw units, linearly
// interpolated within the winning bucket (Histogram.Quantile is this over a
// fresh snapshot). Zero observations yield zero.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(uint64(1) << (histMinShift + i - 1))
			}
			hi := bucketBound(i)
			if math.IsInf(hi, 1) {
				// Open-ended overflow bucket: report its lower bound.
				return lo
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return bucketBound(histBuckets - 2)
}

// FractionAbove estimates the fraction of observations strictly above
// bound (raw units), interpolating within the bucket the bound falls in.
// Zero observations yield zero.
func (s HistSnapshot) FractionAbove(bound float64) float64 {
	if s.Count == 0 || bound < 0 {
		return 0
	}
	var above float64
	for i := 0; i < histBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(uint64(1) << (histMinShift + i - 1))
		}
		hi := bucketBound(i)
		switch {
		case bound >= hi:
			// Entire bucket at or below the bound.
		case bound <= lo:
			above += float64(n)
		default:
			// Bound splits this bucket; assume uniform spread within it.
			above += float64(n) * (hi - bound) / (hi - lo)
		}
	}
	return above / float64(s.Count)
}

// FindHistogram returns the histogram registered under (name, labels), or
// nil when the family or series does not exist yet. Unlike Histogram it
// never creates and never panics on a type mismatch — the SLO engine
// resolves objective targets late, because instrument families appear as
// subsystems start.
func (r *Registry) FindHistogram(name string, labels Labels) *Histogram {
	if inst := r.find(name, labels); inst != nil {
		if h, ok := inst.(*Histogram); ok {
			return h
		}
	}
	return nil
}

// FindCounter returns the counter registered under (name, labels), or nil
// when absent or of a different type.
func (r *Registry) FindCounter(name string, labels Labels) *Counter {
	if inst := r.find(name, labels); inst != nil {
		if c, ok := inst.(*Counter); ok {
			return c
		}
	}
	return nil
}

func (r *Registry) find(name string, labels Labels) instrument {
	lbl := labels.render()
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return nil
	}
	return f.byLbl[lbl]
}
