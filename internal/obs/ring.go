package obs

import "sync"

// Ring is a bounded, concurrency-safe retention window over a monotone
// sequence: it keeps the newest capacity entries, keyed by sequence number,
// and silently overwrites the oldest. It backs every bounded history the
// server keeps — sampled arrival traces, the event journal, and the
// /results replay buffer — none of which may grow without bound or block a
// writer on a reader: Since copies at most max entries under the lock, so
// readers page through a backlog with a cursor.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	base int64 // first sequence of the current window
	next int64 // sequence the next entry gets
}

// NewRing builds a ring retaining the newest capacity entries (minimum 1),
// whose first entry will carry sequence base.
func NewRing[T any](capacity int, base int64) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity), base: base, next: base}
}

// Put retains v at sequence seq. A seq other than the next one restarts
// the window at seq: the entries before the jump never covered the skipped
// range, so they must not be served as if they did.
func (r *Ring[T]) Put(seq int64, v T) {
	r.mu.Lock()
	r.putLocked(seq, v)
	r.mu.Unlock()
}

// Append retains mk(seq) at the next sequence, so an entry can carry the
// sequence it is stored under.
func (r *Ring[T]) Append(mk func(seq int64) T) {
	r.mu.Lock()
	r.putLocked(r.next, mk(r.next))
	r.mu.Unlock()
}

func (r *Ring[T]) putLocked(seq int64, v T) {
	if seq != r.next {
		r.base = seq
	}
	r.buf[seq%int64(len(r.buf))] = v
	r.next = seq + 1
}

func (r *Ring[T]) oldestLocked() int64 {
	return max(r.base, r.next-int64(len(r.buf)))
}

// Window reports the retained range [oldest, next): oldest is the oldest
// sequence still held (== next when empty), next the one the next entry
// gets.
func (r *Ring[T]) Window() (oldest, next int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oldestLocked(), r.next
}

// Since copies out, oldest first, at most limit retained entries with
// sequence >= from — starting at oldest when from has been overwritten —
// and reports the oldest retained sequence, so a caller can tell that
// [from, oldest) is gone. It returns nil when nothing at or past from is
// retained.
func (r *Ring[T]) Since(from int64, limit int) (out []T, oldest int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest = r.oldestLocked()
	from = max(from, oldest)
	end := r.next
	if end-from > int64(limit) {
		end = from + int64(limit)
	}
	if from >= end {
		return nil, oldest
	}
	out = make([]T, 0, end-from)
	for seq := from; seq < end; seq++ {
		out = append(out, r.buf[seq%int64(len(r.buf))])
	}
	return out, oldest
}
