// The event journal is the narrative half of the observability subsystem:
// a bounded, concurrency-safe ring of structured lifecycle events — things
// that happen occasionally and matter afterwards (checkpoints, WAL segment
// rotation, deep replays, follower catch-ups and promotions, throttle
// episodes, SLO state transitions, recovery summaries). Metrics answer "how fast"; the journal
// answers "what happened right before". It is served live at GET /events
// and snapshotted into every flight-recorder bundle, so the sequence of
// events leading up to a stall or crash survives the process.
//
// Recording is cheap (one mutex, no allocation beyond the caller's field
// map) and never blocks on a reader; the ring silently overwrites the
// oldest entries, bounding memory forever. Every event carries a
// monotonically increasing sequence number, so readers page with a cursor
// (?from=seq) and can detect gaps left by overwrites.

package obs

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

// Event is one structured lifecycle event.
type Event struct {
	// Seq is the journal-assigned monotone sequence number (0-based).
	Seq int64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Type is the event's machine-readable kind (e.g. "checkpoint",
	// "wal_rotate", "follower_promote", "slo_transition").
	Type string `json:"type"`
	// Msg is an optional human-readable one-liner.
	Msg string `json:"msg,omitempty"`
	// Fields carries the event's structured payload.
	Fields map[string]any `json:"fields,omitempty"`
}

// Journal is a bounded ring of events. The zero value is not usable; use
// NewJournal or the process-wide DefaultJournal. A nil *Journal is safe to
// record into (no-op), so instrumentation can be switched off by leaving
// the pointer nil.
type Journal struct {
	ring *Ring[Event]
}

// defaultJournalCap bounds the process-wide journal: lifecycle events are
// rare (per checkpoint / segment / promotion, not per arrival), so 1024
// spans hours to days of history in a few hundred KB.
const defaultJournalCap = 1024

// NewJournal builds a journal retaining the newest capacity events
// (minimum 1).
func NewJournal(capacity int) *Journal {
	return &Journal{ring: NewRing[Event](capacity, 0)}
}

var defaultJournal = NewJournal(defaultJournalCap)

// DefaultJournal is the process-wide journal every subsystem records into
// unless explicitly pointed elsewhere — the journal GET /events serves.
func DefaultJournal() *Journal { return defaultJournal }

// Record appends one event, assigning its sequence number and timestamp.
// Safe on a nil journal (no-op), so callers gate instrumentation with the
// pointer alone.
func (j *Journal) Record(typ, msg string, fields map[string]any) {
	if j == nil {
		return
	}
	j.ring.Append(func(seq int64) Event {
		return Event{Seq: seq, Time: time.Now(), Type: typ, Msg: msg, Fields: fields}
	})
}

// NextSeq returns the sequence number the next recorded event will get.
func (j *Journal) NextSeq() int64 {
	if j == nil {
		return 0
	}
	_, next := j.ring.Window()
	return next
}

// OldestSeq returns the sequence number of the oldest event still
// retained in the ring (== NextSeq when the journal is empty). Cursors
// below it have fallen off the ring; servers use it to report the gap
// explicitly instead of silently resuming.
func (j *Journal) OldestSeq() int64 {
	if j == nil {
		return 0
	}
	oldest, _ := j.ring.Window()
	return oldest
}

// Snapshot returns every retained event, oldest first.
func (j *Journal) Snapshot() []Event {
	return j.Since(0)
}

// Since returns the retained events with sequence >= from, oldest first.
// Events already overwritten are silently absent — the first returned
// event's Seq tells the caller how much history survived.
func (j *Journal) Since(from int64) []Event {
	if j == nil {
		return nil
	}
	evs, _ := j.ring.Since(from, math.MaxInt)
	return evs
}

// WriteNDJSON streams the retained events with sequence >= from to w, one
// JSON object per line, oldest first.
func (j *Journal) WriteNDJSON(w io.Writer, from int64) error {
	enc := json.NewEncoder(w)
	for _, ev := range j.Since(from) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
