package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// hostRef is a fixed piece of work that depends on nothing in the
// repository: merge-intersections of small sorted token sets, all in the
// first-level cache, on both CPUs at once. How long it takes says how fast
// the host is running this machine's CPUs right now, which on the reference
// box moves by a quarter for minutes at a time and moves every end-to-end
// number with it (AA.md). A reference that works the memory system instead
// (pointer chase, string-keyed map) was tried beside it and tracks the
// server far worse.
type hostRef struct {
	sets [][]uint32
}

const (
	refSets     = 2048
	refSetLen   = 24
	refVocab    = 512
	refPartners = 64
)

// refNominalS anchors the host factor: a round figure inside the 36-50 ms a
// sample takes on the reference box as its host goes from quiet to busy, so
// that normalized numbers read like that box's; any constant would serve a
// comparison equally well.
const refNominalS = 0.040

func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(1))
	h := &hostRef{}
	for range refSets {
		set := make([]uint32, 0, refSetLen)
		for len(set) < refSetLen {
			if t := uint32(rng.Intn(refVocab)); !slices.Contains(set, t) {
				set = append(set, t)
			}
		}
		slices.Sort(set)
		h.sets = append(h.sets, set)
	}
	return h
}

// refSink keeps the compiler from discarding the work.
var refSink uint32

// work intersects every set with its next refPartners neighbours.
func (h *hostRef) work() uint32 {
	var common uint32
	for i, a := range h.sets {
		for d := 1; d <= refPartners; d++ {
			b := h.sets[(i+d)%len(h.sets)]
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				switch {
				case a[x] < b[y]:
					x++
				case a[x] > b[y]:
					y++
				default:
					common++
					x++
					y++
				}
			}
		}
	}
	return common
}

// sample runs the work on two threads at once and returns how long the
// slower one took, in seconds.
func (h *hostRef) sample() float64 {
	var took [2]time.Duration
	var sums [2]uint32
	var wg sync.WaitGroup
	for t := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sums[t] = h.work()
			took[t] = time.Since(t0)
		}()
	}
	wg.Wait()
	refSink += sums[0] + sums[1]
	return max(took[0], took[1]).Seconds()
}
