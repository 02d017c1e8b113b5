// Package stream models incomplete data streams (Definition 1) and the
// count-based sliding window of Definition 2: each stream's window holds its
// w most recent tuples.
package stream

import (
	"fmt"
	"sort"

	"terids/internal/tuple"
)

// Interleave merges records from multiple per-stream slices into a single
// arrival order sorted by Seq (ties broken by stream id then RID, for
// determinism). It returns the merged sequence.
func Interleave(perStream ...[]*tuple.Record) []*tuple.Record {
	var all []*tuple.Record
	for _, s := range perStream {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.RID < b.RID
	})
	return all
}

// Window is the count-based sliding window W_t of Definition 2 over one
// stream: the w most recent tuples. Push returns the evicted tuple once the
// window is full.
type Window struct {
	w     int
	buf   []*tuple.Record
	head  int // index of the oldest tuple
	count int
}

// NewWindow creates a window of capacity w (w >= 1).
func NewWindow(w int) (*Window, error) {
	if w < 1 {
		return nil, fmt.Errorf("stream: window size %d, need >= 1", w)
	}
	return &Window{w: w, buf: make([]*tuple.Record, w)}, nil
}

// Push appends a newly arriving tuple; if the window was full, the oldest
// tuple is evicted and returned (expired, nil otherwise).
func (w *Window) Push(r *tuple.Record) (expired *tuple.Record) {
	if w.count == w.w {
		expired = w.buf[w.head]
		w.buf[w.head] = r
		w.head = (w.head + 1) % w.w
		return expired
	}
	w.buf[(w.head+w.count)%w.w] = r
	w.count++
	return nil
}

// Each visits the live tuples from oldest to newest; returning false from
// the callback stops the scan.
func (w *Window) Each(visit func(*tuple.Record) bool) {
	for i := 0; i < w.count; i++ {
		if !visit(w.buf[(w.head+i)%w.w]) {
			return
		}
	}
}

// Export returns the live tuples oldest-first: the window's restorable
// state is exactly its live tuples.
func (w *Window) Export() []*tuple.Record {
	out := make([]*tuple.Record, 0, w.count)
	w.Each(func(r *tuple.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Import restores exported tuples (oldest-first) into an empty window. It
// refuses to evict: more tuples than the capacity is a corrupt checkpoint.
func (w *Window) Import(recs []*tuple.Record) error {
	if w.count != 0 {
		return fmt.Errorf("stream: import into non-empty window (%d tuples)", w.count)
	}
	if len(recs) > w.w {
		return fmt.Errorf("stream: import of %d tuples exceeds window capacity %d", len(recs), w.w)
	}
	for _, r := range recs {
		w.Push(r)
	}
	return nil
}

// MultiWindow maintains one count-based window per stream, the layout used
// by the TER-iDS problem statement (n streams, each with its own W_t).
type MultiWindow struct {
	wins []*Window
}

// NewMultiWindow creates n windows of capacity w each.
func NewMultiWindow(n, w int) (*MultiWindow, error) {
	if n < 1 {
		return nil, fmt.Errorf("stream: need >= 1 streams, got %d", n)
	}
	mw := &MultiWindow{wins: make([]*Window, n)}
	for i := range mw.wins {
		win, err := NewWindow(w)
		if err != nil {
			return nil, err
		}
		mw.wins[i] = win
	}
	return mw, nil
}

// Push routes r to its stream's window and returns the evicted tuple, if
// any.
func (m *MultiWindow) Push(r *tuple.Record) (*tuple.Record, error) {
	if r.Stream < 0 || r.Stream >= len(m.wins) {
		return nil, fmt.Errorf("stream: record %s has stream %d, have %d streams",
			r.RID, r.Stream, len(m.wins))
	}
	return m.wins[r.Stream].Push(r), nil
}

// Export returns every stream's live tuples, interleaved back into one
// global sequence: per-stream oldest-first order merged by Seq (ties broken
// deterministically), which is the order Import replays them in.
func (m *MultiWindow) Export() []*tuple.Record {
	per := make([][]*tuple.Record, len(m.wins))
	for i, w := range m.wins {
		per[i] = w.Export()
	}
	return Interleave(per...)
}

// Import restores exported tuples into empty windows, routing each to its
// stream. Order within a stream must be oldest-first (Export's contract).
func (m *MultiWindow) Import(recs []*tuple.Record) error {
	per := make([][]*tuple.Record, len(m.wins))
	for _, r := range recs {
		if r.Stream < 0 || r.Stream >= len(m.wins) {
			return fmt.Errorf("stream: import record %s has stream %d, have %d streams",
				r.RID, r.Stream, len(m.wins))
		}
		per[r.Stream] = append(per[r.Stream], r)
	}
	for i, w := range m.wins {
		if err := w.Import(per[i]); err != nil {
			return fmt.Errorf("stream %d: %w", i, err)
		}
	}
	return nil
}

// Each visits all live tuples across all streams.
func (m *MultiWindow) Each(visit func(*tuple.Record) bool) {
	for _, w := range m.wins {
		stop := false
		w.Each(func(r *tuple.Record) bool {
			if !visit(r) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}
