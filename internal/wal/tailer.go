// The Tailer is the read side of the follower-replica design: a read-only
// view of a WAL directory that another live process is appending to. It
// must never use Open — Open truncates a torn tail record and takes the
// writer lock, both of which would fight the live writer — so the Tailer
// re-scans the directory on every pass, reads records bounded by the
// scanned sizes, and treats anything past the last complete record of the
// tail segment as "not durable yet" rather than an error. Segments removed
// underneath it (the writer's checkpointer truncating below a watermark)
// surface as ErrTruncated: the clean restart-from-checkpoint signal, never
// a silent gap.

package wal

import (
	"fmt"
	"math"
	"os"
)

// Tailer reads another process's live WAL directory without mutating it.
// It holds no file descriptors between calls, so the writer can rotate and
// truncate freely; each Replay pass works from a fresh directory scan.
type Tailer struct {
	dir string
}

// OpenTail builds a read-only tailer over dir. The directory must exist
// (the follower boots against a writer's durability dir, never creates
// one).
func OpenTail(dir string) (*Tailer, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("wal: tail target %s is not a directory", dir)
	}
	return &Tailer{dir: dir}, nil
}

// Replay streams every fully-written entry with sequence >= from, in
// order, to fn, and returns the next sequence to request — the durable
// frontier as of this pass. A torn or partially-visible record in the tail
// segment ends the pass cleanly (the writer is mid-append; the next pass
// picks it up). ErrTruncated is returned when from is below the oldest
// retained segment or a segment vanishes mid-pass: reload a checkpoint and
// resume from its watermark. fn returning an error aborts the pass with
// that error.
func (t *Tailer) Replay(from int64, fn func(Entry) error) (int64, error) {
	segs, err := scanSegments(t.dir)
	if err != nil {
		return from, err
	}
	return readSegments(segs, from, math.MaxInt64, true, fn)
}

// FirstSeq returns the oldest sequence the directory still retains (zero
// when it holds no segment).
func (t *Tailer) FirstSeq() (int64, error) {
	segs, err := scanSegments(t.dir)
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	return segs[0].first, nil
}
