package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of v by linear interpolation
// between order statistics. v need not be sorted; it is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance rule for run-to-run
// spread is written against. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}

// windowed is one end-to-end number over the rounds of a run: the median of
// its per-round values, with their quartiles beside it.
type windowed struct {
	Median, Q1, Q3 float64
	// Usable is how many windows the summary is over.
	Usable  int
	Windows []float64
}

// overWindows summarizes per-window values. usable, when non-nil, marks the
// windows that count (all of them when none is usable).
func overWindows(perWindow []float64, usable []bool) windowed {
	w := windowed{Windows: perWindow}
	var pool []float64
	for k, v := range perWindow {
		if usable == nil || usable[k] {
			pool = append(pool, v)
		}
	}
	w.Usable = len(pool)
	if len(pool) == 0 {
		pool = perWindow
	}
	w.Median, w.Q1, w.Q3 = median(pool), quantile(pool, 0.25), quantile(pool, 0.75)
	return w
}

// quietMedian is the median of the values during which no tick was stolen,
// or of all of them when every one was disturbed.
func quietMedian(v []float64, stolen []int64) float64 {
	quiet := make([]bool, len(v))
	for i, s := range stolen {
		quiet[i] = s == 0
	}
	return overWindows(v, quiet).Median
}

// atZeroSteal is the fallback for a run in which the hypervisor took CPU
// time in every round: what v would have been with no tick stolen, as the
// intercept of a Theil-Sen line (median of the pairwise slopes, then median
// of the residual intercepts) of v over the ticks stolen in its round. v
// must be linear in lost time (a duration or a cost, not a rate). On the
// reference box a stolen tick costs a burst about 9 ms of wall time
// whichever workload, and in runs with both kinds of round the intercept
// lands within 3-7% of the undisturbed rounds' median, where the median
// over disturbed rounds is off by up to 60% (AA.md). When every round lost
// the same number of ticks there is no line, and the median of v is all
// there is.
func atZeroSteal(v []float64, stolen []int64) float64 {
	var slopes []float64
	for i := range v {
		for j := i + 1; j < len(v); j++ {
			if stolen[i] != stolen[j] {
				slopes = append(slopes, (v[j]-v[i])/float64(stolen[j]-stolen[i]))
			}
		}
	}
	if len(slopes) == 0 {
		return median(v)
	}
	slope := median(slopes)
	intercepts := make([]float64, len(v))
	for i := range v {
		intercepts[i] = v[i] - slope*float64(stolen[i])
	}
	return median(intercepts)
}

// backlogGrowing reports whether an open-loop phase was past the
// sustainable rate: the unanswered-arrival backlog, sampled at every batch
// departure, is over its last fifth more than double its first fifth's plus
// slack of a few batches. Below capacity the backlog hovers around rate x
// latency throughout; above it, it grows for as long as the phase lasts.
func backlogGrowing(backlog []int, batch int) bool {
	const fifths = 5
	if len(backlog) < fifths {
		return false
	}
	per := len(backlog) / fifths
	mean := func(s []int) float64 {
		sum := 0
		for _, b := range s {
			sum += b
		}
		return float64(sum) / float64(len(s))
	}
	first := mean(backlog[:per])
	last := mean(backlog[len(backlog)-per:])
	return last > 2*first+float64(4*batch)
}
