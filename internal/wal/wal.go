// Package wal is the arrival write-ahead log of the TER-iDS durability
// subsystem: a segmented, CRC-checksummed, append-only record of every
// accepted arrival, in submission order. Per the paper's incomplete-stream
// model the arrival order is the only non-derivable online state — every
// imputation distribution, pruning profile, and emitted pair is a
// deterministic function of it — so checkpoint-plus-arrival-log is an exact
// recovery discipline: restore the newest snapshot, replay the logged
// arrivals past its watermark, and the rebuilt state (pairs, order,
// probabilities) is byte-identical to an uninterrupted run.
//
// Durability uses group commit: appenders reserve a slot in the pending
// batch (cheap, in-memory, strictly ordered by sequence number) and then
// wait on a ticket while a single committer goroutine writes and fsyncs
// whole batches — concurrent appenders amortize one fsync instead of paying
// one each.
//
// On-disk layout: the directory holds segments named %020d.wal after their
// first sequence number. Each record is
//
//	u32 payload length | u32 crc32(payload) | payload
//
// with the payload encoding one arrival (sequence, stream id, raw tuple).
// Segments rotate at Options.SegmentBytes; TruncateBefore removes whole
// segments strictly below a checkpoint watermark. Open scans only the tail
// segment, truncating a torn final record (crash mid-write) so the log
// always reopens to the durable prefix.
//
// A dropped I/O or CRC error here is indistinguishable from corruption, so
// the package opts into the walerr analyzer: every error result must be
// handled or explicitly waived with `_ =`.
//
//terids:strict-errors
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"terids/internal/obs"
)

// ErrFull is returned by a non-blocking Reserve when the pending batch is at
// Options.QueueDepth (backpressure; the engine maps it to ErrOverloaded).
var ErrFull = errors.New("wal: append queue full")

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: closed")

// ErrTruncated marks a replay that requested (or raced into) a range the
// log no longer retains: the cursor is below the oldest segment, or
// TruncateBefore removed a segment mid-replay. It is a clean
// restart-from-checkpoint signal — the caller should reload the newest
// checkpoint and resume from its watermark — never a silent gap or a raw
// fd error.
var ErrTruncated = errors.New("wal: replayed range truncated")

// ErrLocked is returned by Open when another live process holds the
// writer lock on the directory — two writers on one WAL directory would
// corrupt it, and a follower must promote via the lock, not around it.
var ErrLocked = errors.New("wal: directory locked by another writer")

// maxRecord bounds one encoded record, so a corrupted length prefix cannot
// drive allocation; anything larger is treated as a torn/corrupt tail.
const maxRecord = 1 << 24

// suffix is the segment file extension.
const suffix = ".wal"

// Entry is one logged arrival: the engine-assigned sequence number plus the
// raw tuple, everything replay needs to reconstruct the exact record.
type Entry struct {
	// Seq is the engine's global arrival sequence. Entries are strictly
	// contiguous: each append must carry the previous sequence plus one.
	Seq int64
	// RID, Stream, TupleSeq, EntityID, Values mirror tuple.Record ("-" or ""
	// marks a missing attribute; EntityID is the evaluation label, -1 when
	// unknown).
	RID      string
	Stream   int
	TupleSeq int64
	EntityID int
	Values   []string
}

// Options tunes the log.
type Options struct {
	// SegmentBytes is the rotation threshold. Default: 16 MiB.
	SegmentBytes int64
	// QueueDepth bounds the pending (reserved, not yet durable) batch.
	// Default: 256.
	QueueDepth int
	// NoSync skips fsync after each batch (tests and benchmarks; a crash may
	// lose the tail the OS had not flushed, but records stay well-formed).
	NoSync bool
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
}

// segmeta is one segment's bookkeeping.
type segmeta struct {
	first int64 // first sequence number in the segment (also its filename)
	path  string
	size  int64
}

// flush is one group-commit batch: entries reserved together, made durable
// by a single write+fsync, sharing one outcome.
type flush struct {
	entries []Entry
	err     error
	done    chan struct{}
}

// Ticket is an appender's claim on a pending batch; Wait blocks until the
// batch is durable (or failed).
type Ticket struct {
	f *flush // nil: the entry was already durable (idempotent re-append)
}

// Wait blocks until the reserved entry is durable and returns the batch's
// commit error, if any.
func (t Ticket) Wait() error {
	if t.f == nil {
		return nil
	}
	<-t.f.done
	return t.f.err
}

// Stats is a point-in-time view of the log.
type Stats struct {
	// Segments and Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// FirstSeq is the oldest retained sequence; NextSeq the next to be
	// reserved; DurableSeq the frontier below which every entry is on disk.
	// All zero for a log that has never seen an append.
	FirstSeq   int64 `json:"first_seq"`
	NextSeq    int64 `json:"next_seq"`
	DurableSeq int64 `json:"durable_seq"`
	// Pending counts reserved entries not yet durable.
	Pending int `json:"pending"`
}

// Log is a segmented append-only arrival log. Reserve/Append may be called
// from many goroutines; ordering of sequence numbers across them is the
// caller's contract (the engine serializes reservation under its submission
// lock).
type Log struct {
	dir  string
	opts Options

	// mu is the append mutex: reservation bookkeeping only. Blocking work —
	// segment I/O, fsync, file removal — happens outside it, or appenders
	// queue behind the disk.
	//terids:nosend
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	cur      *flush
	next     int64 // next sequence to reserve; -1 until the first entry fixes it
	durable  int64 // sequences < durable are written (and synced unless NoSync)
	segs     []segmeta
	total    int64
	closed   bool
	err      error // sticky commit failure: the log is poisoned

	f     *os.File // active (tail) segment, committer-owned
	fsize int64

	committerDone chan struct{}

	// metCommit/metFsync/metBatch are group-commit instruments in the
	// process-wide registry, committer-observed (one sample per batch).
	metCommit *obs.Histogram
	metFsync  *obs.Histogram
	metBatch  *obs.Histogram

	// jr receives segment lifecycle events (rotation, truncation) —
	// per-segment, not per-append, so recording cost is negligible.
	jr *obs.Journal

	// lockf holds the exclusive writer flock on the directory for the
	// lifetime of the log. The kernel releases it when the process dies —
	// even on SIGKILL — so followers probe it as a writer-liveness signal.
	lockf *os.File

	// testHookBeforeCommit, when set, runs in the committer just before each
	// batch write (test-only: lets tests hold a batch open to fill the queue).
	testHookBeforeCommit func()
}

func segName(first int64) string {
	return fmt.Sprintf("%020d%s", first, suffix)
}

func parseSegName(name string) (int64, bool) {
	base, ok := strings.CutSuffix(name, suffix)
	if !ok || len(base) != 20 {
		return 0, false
	}
	n, err := strconv.ParseInt(base, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Open scans dir (created if missing), validates the tail segment —
// truncating a torn final record — and returns a log positioned to append
// after the last durable entry. An empty directory yields an empty log whose
// first append fixes the starting sequence.
func Open(dir string, opts Options) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lockf, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			releaseDirLock(lockf)
		}
	}()
	l := &Log{dir: dir, opts: opts, next: -1, durable: -1, committerDone: make(chan struct{}), lockf: lockf}
	l.notEmpty = sync.NewCond(&l.mu)
	l.notFull = sync.NewCond(&l.mu)
	reg := obs.Default()
	l.metCommit = reg.Histogram("terids_wal_commit_seconds",
		"Group-commit batch latency in the WAL committer: rotate if needed, encode, write, fsync.", nil)
	l.metFsync = reg.Histogram("terids_wal_fsync_seconds",
		"fsync portion of each WAL group commit (absent samples under NoSync).", nil)
	l.metBatch = reg.SizeHistogram("terids_wal_batch_entries",
		"Entries per WAL group-commit batch (how well concurrent submitters amortize each fsync).", nil)
	l.jr = obs.DefaultJournal()

	if l.segs, err = scanSegments(dir); err != nil {
		return nil, err
	}
	if len(l.segs) > 0 {
		if err := l.openTail(); err != nil {
			return nil, err
		}
	}
	for _, s := range l.segs {
		l.total += s.size
	}
	opened = true
	go l.run()
	return l, nil
}

// openTail finds the tail segment's durable prefix — a torn or corrupt
// final record (crash mid-write) ends it — truncates the rest, and opens the
// segment for appending. A tail with no whole record (a zero-byte segment, a
// pure torn write) is removed and the one before it becomes the tail.
func (l *Log) openTail() error {
	tail := &l.segs[len(l.segs)-1]
	next := tail.first
	// from = MinInt64: every record counts, so the first must carry the
	// filename's sequence and the rest must follow it without a gap.
	good, _, err := readSegment(*tail, math.MinInt64, math.MaxInt64, &next, true, func(Entry) error { return nil })
	if err != nil {
		return err
	}
	if next == tail.first {
		if err := os.Remove(tail.path); err != nil {
			return err
		}
		l.segs = l.segs[:len(l.segs)-1]
		if len(l.segs) > 0 {
			return l.openTail()
		}
		return nil
	}
	if good < tail.size {
		if err := os.Truncate(tail.path, good); err != nil {
			return err
		}
		tail.size = good
	}
	w, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = w
	l.fsize = tail.size
	l.next = next
	l.durable = next
	return nil
}

// Reserve claims the next slot in the pending batch for e and returns a
// ticket to wait on — ReserveN for one entry. e.Seq must be the previous
// reservation plus one; a sequence already reserved (or durable) is a no-op
// whose ticket is immediately ready, which makes recovery replay through
// the normal submission path idempotent. With block=false a full queue
// returns ErrFull instead of waiting.
func (l *Log) Reserve(e Entry, block bool) (Ticket, error) {
	return l.ReserveN([]Entry{e}, block)
}

// ReserveN claims slots for a whole batch of entries under one lock
// acquisition and returns a single ticket covering all of them — the batched
// counterpart of Reserve that Engine.SubmitBatch amortizes its WAL
// reservation through. The entries must be in ascending, gap-free sequence
// order. A leading run of already-durable sequences is skipped entry by
// entry (so recovery replay through the batched submission path stays
// idempotent); the remainder must then continue exactly at the log's next
// sequence. All accepted entries join the same pending flush and share one
// write+fsync; a batch may overrun QueueDepth by up to its own length
// (blocking waits only for the current flush to have any room at all), which
// keeps a batch atomic within one group commit. With block=false a full
// queue returns ErrFull before anything is appended.
//
//terids:hotpath
func (l *Log) ReserveN(entries []Entry, block bool) (Ticket, error) {
	if len(entries) == 0 {
		return Ticket{}, nil
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq != entries[i-1].Seq+1 {
			return Ticket{}, fmt.Errorf("wal: batch entries out of order: seq %d follows %d",
				entries[i].Seq, entries[i-1].Seq)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for {
		if l.closed {
			return Ticket{}, ErrClosed
		}
		if l.err != nil {
			return Ticket{}, l.err
		}
		for i < len(entries) && l.next >= 0 && entries[i].Seq < l.next {
			i++ // already reserved or durable: idempotent replay no-op
		}
		if i == len(entries) {
			return Ticket{}, nil
		}
		if l.next >= 0 && entries[i].Seq > l.next {
			return Ticket{}, fmt.Errorf("wal: append seq %d leaves a gap (next is %d)", entries[i].Seq, l.next)
		}
		if l.cur == nil || len(l.cur.entries) < l.opts.QueueDepth {
			break
		}
		if !block {
			return Ticket{}, ErrFull
		}
		l.notFull.Wait()
	}
	if l.cur == nil {
		l.cur = &flush{done: make(chan struct{})}
	}
	if l.next < 0 {
		// First entry of an empty log fixes the starting sequence and the
		// durable frontier (nothing older exists).
		l.durable = entries[i].Seq
	}
	l.cur.entries = append(l.cur.entries, entries[i:]...)
	l.next = entries[len(entries)-1].Seq + 1
	l.notEmpty.Signal()
	return Ticket{f: l.cur}, nil
}

// Append reserves e and waits for durability — the blocking convenience
// wrapper around Reserve.
func (l *Log) Append(e Entry) error {
	t, err := l.Reserve(e, true)
	if err != nil {
		return err
	}
	return t.Wait()
}

// run is the committer: it takes whole pending batches and makes them
// durable with one write (+fsync) each.
func (l *Log) run() {
	defer close(l.committerDone)
	for {
		l.mu.Lock()
		for l.cur == nil && !l.closed {
			l.notEmpty.Wait()
		}
		f := l.cur
		l.cur = nil
		closed := l.closed
		hook := l.testHookBeforeCommit
		l.mu.Unlock()
		if f == nil {
			if closed {
				return
			}
			continue
		}
		if hook != nil {
			hook()
		}
		err := l.commit(f.entries)
		l.mu.Lock()
		if err != nil {
			if l.err == nil {
				l.err = err
			}
		} else {
			l.durable = f.entries[len(f.entries)-1].Seq + 1
		}
		l.notFull.Broadcast()
		l.mu.Unlock()
		f.err = err
		close(f.done)
	}
}

// commit writes one batch to the active segment, rotating first if the
// segment is over the threshold. Only the committer touches l.f.
func (l *Log) commit(entries []Entry) error {
	commitStart := time.Now()
	if l.f != nil && l.fsize >= l.opts.SegmentBytes {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	if l.f == nil {
		path := filepath.Join(l.dir, segName(entries[0].Seq))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		l.jr.Record("wal_rotate", "opened a new WAL segment",
			map[string]any{"first_seq": entries[0].Seq, "path": path})
		// The new directory entry must be durable before any batch in this
		// segment is acknowledged: fsyncing the file alone does not persist
		// its name, and a power loss could otherwise drop a whole
		// acknowledged segment.
		if !l.opts.NoSync {
			if err := syncDir(l.dir); err != nil {
				_ = f.Close() // walerr: the sync failure is the error being returned
				return err
			}
		}
		l.f = f
		l.fsize = 0
		l.mu.Lock()
		l.segs = append(l.segs, segmeta{first: entries[0].Seq, path: path})
		l.mu.Unlock()
	}
	var buf bytes.Buffer
	for i := range entries {
		if err := writeRecord(&buf, &entries[i]); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wal: writing segment: %w", err)
	}
	if !l.opts.NoSync {
		fsyncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.metFsync.ObserveSince(fsyncStart)
	}
	l.fsize += int64(buf.Len())
	l.mu.Lock()
	l.segs[len(l.segs)-1].size = l.fsize
	l.total += int64(buf.Len())
	l.mu.Unlock()
	l.metCommit.ObserveSince(commitStart)
	l.metBatch.Observe(int64(len(entries)))
	return nil
}

// TruncateBefore removes whole segments all of whose entries have sequence
// numbers below seq — called after a checkpoint at watermark seq makes them
// unnecessary for recovery. The active segment is never removed.
func (l *Log) TruncateBefore(seq int64) error {
	// Bookkeeping under the append mutex, unlinking outside it (locksend:
	// os.Remove under mu would queue appenders behind the disk). Dropping
	// the segments from l.segs first is safe in both failure directions: a
	// removal that fails leaves a stray file that the next Open rescans as
	// ordinary (still-valid) coverage, and replay of a removed range
	// already reports ErrTruncated off the bookkeeping, not the directory.
	l.mu.Lock()
	var victims []string
	for len(l.segs) >= 2 && l.segs[1].first <= seq {
		victims = append(victims, l.segs[0].path)
		l.total -= l.segs[0].size
		l.segs = l.segs[1:]
	}
	if len(victims) > 0 {
		l.jr.Record("wal_truncate", "removed WAL segments below the checkpoint watermark",
			map[string]any{"segments": len(victims), "watermark": seq, "first_seq": l.segs[0].first})
	}
	l.mu.Unlock()
	for _, path := range victims {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// Replay streams every durable entry with sequence >= from, in order, to fn;
// fn returning an error aborts the replay. It is an error for the log to
// have already truncated entries at or above from (the caller's checkpoint
// is older than the retained log). Entries still pending (reserved but not
// yet durable) are not replayed, so Replay is safe concurrently with
// appends; recovery calls it before the first append anyway.
func (l *Log) Replay(from int64, fn func(Entry) error) error {
	l.mu.Lock()
	segs := append([]segmeta(nil), l.segs...)
	stop := l.durable
	l.mu.Unlock()
	if len(segs) == 0 || stop < 0 {
		return nil
	}
	expect, err := readSegments(segs, from, stop, false, fn)
	if err == nil && expect < stop {
		err = fmt.Errorf("wal: replay ended at seq %d, durable frontier is %d", expect, stop)
	}
	return err
}

// scanSegments lists dir's segments with their current sizes, oldest first.
// It only reads: Open and the Tailer share it, and a segment removed between
// the listing and its stat (a live writer truncating under a tailer) is
// skipped.
func scanSegments(dir string) ([]segmeta, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmeta
	for _, de := range des {
		first, ok := parseSegName(de.Name())
		if !ok || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		segs = append(segs, segmeta{first: first, path: filepath.Join(dir, de.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].first {
			return nil, fmt.Errorf("wal: segments %s and %s overlap",
				filepath.Base(segs[i-1].path), filepath.Base(segs[i].path))
		}
	}
	return segs, nil
}

// readSegments is the one segment reader behind Log.Replay and
// Tailer.Replay: it streams every entry in [from, stop) of segs (oldest
// first) to fn and returns the sequence after the last one delivered. A
// record running past a segment's known size ends the pass — the writer is
// mid-append. With tornTail, so does any malformed record in the last
// segment: a tailer cannot tell a torn write from one in progress.
// ErrTruncated reports a from below the oldest segment, or a segment removed
// mid-pass.
func readSegments(segs []segmeta, from, stop int64, tornTail bool, fn func(Entry) error) (int64, error) {
	if len(segs) == 0 {
		return from, nil
	}
	if from < segs[0].first {
		return from, fmt.Errorf("%w: entries from seq %d requested, oldest retained is %d",
			ErrTruncated, from, segs[0].first)
	}
	next := from
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue // entirely below the requested range
		}
		if s.first >= stop {
			break
		}
		_, done, err := readSegment(s, from, stop, &next, tornTail && i == len(segs)-1, fn)
		if err != nil || done {
			return next, err
		}
	}
	return next, nil
}

// readSegment delivers one segment's entries in [from, stop), advancing
// *next; end is the byte offset after the last whole record read, and done
// reports that the pass ends here (see readSegments).
func readSegment(s segmeta, from, stop int64, next *int64, torn bool, fn func(Entry) error) (end int64, done bool, err error) {
	f, err := os.Open(s.path)
	if err != nil {
		if os.IsNotExist(err) {
			// TruncateBefore removed the segment between the scan and this
			// open: the range is gone, cleanly.
			return 0, false, fmt.Errorf("%w: segment %s removed mid-replay", ErrTruncated, filepath.Base(s.path))
		}
		return 0, false, err
	}
	//lint:ignore walerr read-only replay scan; close cannot lose data
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	for {
		payload, n, err := readRecord(br, s.size-off)
		if err == io.EOF {
			return off, false, nil
		}
		var e Entry
		if err == nil {
			e, err = decodeEntry(payload)
		}
		if err != nil {
			if torn || errors.Is(err, errShortRecord) {
				return off, true, nil
			}
			return off, false, fmt.Errorf("wal: segment %s at offset %d: %w", filepath.Base(s.path), off, err)
		}
		if e.Seq < from {
			off += n
			continue
		}
		if e.Seq != *next {
			return off, false, fmt.Errorf("wal: segment %s: entry seq %d, expected %d (log not contiguous)",
				filepath.Base(s.path), e.Seq, *next)
		}
		if e.Seq >= stop {
			return off, true, nil
		}
		off += n
		*next = e.Seq + 1
		if err := fn(e); err != nil {
			return off, false, err
		}
	}
}

// Stats returns the log's current footprint and frontiers.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{Segments: len(l.segs), Bytes: l.total}
	if l.next >= 0 {
		st.NextSeq = l.next
		st.DurableSeq = l.durable
		st.Pending = int(l.next - l.durable)
	}
	if len(l.segs) > 0 {
		st.FirstSeq = l.segs[0].first
	} else if l.next >= 0 {
		st.FirstSeq = l.next
	}
	return st
}

// Close flushes the pending batch, stops the committer, and closes the
// active segment. Further appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.committerDone
		return nil
	}
	l.closed = true
	l.notEmpty.Signal()
	l.notFull.Broadcast()
	l.mu.Unlock()
	<-l.committerDone
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	// Release the liveness flock outside mu (locksend: the release closes a
	// file descriptor, and a follower polling TryAcquire must not observe
	// the lock held by a Log wedged on its own close path).
	l.mu.Lock()
	lockf := l.lockf
	l.lockf = nil
	err := l.err
	l.mu.Unlock()
	releaseDirLock(lockf)
	return err
}

// syncDir fsyncs a directory, making renames and newly created names in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // walerr: the sync failure is the error being returned
		return err
	}
	return d.Close()
}

// errShortRecord marks a record whose declared length runs past the known
// segment end — a torn write at the tail, or (during concurrent replay) a
// record beyond the captured durable frontier.
var errShortRecord = errors.New("wal: record extends past segment end")

// writeRecord frames one entry: length, crc, payload.
func writeRecord(buf *bytes.Buffer, e *Entry) error {
	payload := encodeEntry(e)
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: entry %d encodes to %d bytes, limit %d", e.Seq, len(payload), maxRecord)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)
	return nil
}

// readRecord reads one framed record; remaining bounds how many bytes of the
// segment are known to exist, so a torn length prefix fails cleanly instead
// of blocking on a short read.
func readRecord(br *bufio.Reader, remaining int64) (payload []byte, n int64, err error) {
	if remaining <= 0 {
		return nil, 0, io.EOF
	}
	if remaining < 8 {
		return nil, 0, errShortRecord
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errShortRecord
		}
		return nil, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if size > maxRecord {
		return nil, 0, fmt.Errorf("wal: implausible record length %d", size)
	}
	if int64(size) > remaining-8 {
		return nil, 0, errShortRecord
	}
	payload = make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, 0, errShortRecord
		}
		return nil, 0, err
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, 8 + int64(size), nil
}

// encodeEntry serializes one arrival (varints + length-prefixed strings).
func encodeEntry(e *Entry) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	vi := func(v int64) { buf.Write(tmp[:binary.PutVarint(tmp[:], v)]) }
	uv := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	str := func(s string) { uv(uint64(len(s))); buf.WriteString(s) }
	vi(e.Seq)
	str(e.RID)
	vi(int64(e.Stream))
	vi(e.TupleSeq)
	vi(int64(e.EntityID))
	uv(uint64(len(e.Values)))
	for _, v := range e.Values {
		str(v)
	}
	return buf.Bytes()
}

// decodeEntry parses one payload back into an entry.
func decodeEntry(payload []byte) (Entry, error) {
	r := bytes.NewReader(payload)
	var firstErr error
	vi := func() int64 {
		v, err := binary.ReadVarint(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	uv := func() uint64 {
		v, err := binary.ReadUvarint(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	str := func() string {
		n := uv()
		if firstErr != nil {
			return ""
		}
		if n > uint64(r.Len()) {
			firstErr = fmt.Errorf("wal: string length %d exceeds remaining payload %d", n, r.Len())
			return ""
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			firstErr = err
			return ""
		}
		return string(b)
	}
	var e Entry
	e.Seq = vi()
	e.RID = str()
	e.Stream = int(vi())
	e.TupleSeq = vi()
	e.EntityID = int(vi())
	nv := uv()
	if firstErr == nil && nv > uint64(r.Len()) {
		firstErr = fmt.Errorf("wal: value count %d exceeds remaining payload %d", nv, r.Len())
	}
	if firstErr == nil {
		e.Values = make([]string, 0, nv)
		for i := uint64(0); i < nv && firstErr == nil; i++ {
			e.Values = append(e.Values, str())
		}
	}
	if firstErr != nil {
		return Entry{}, fmt.Errorf("wal: corrupt entry payload: %w", firstErr)
	}
	if r.Len() != 0 {
		return Entry{}, fmt.Errorf("wal: %d trailing bytes in entry payload", r.Len())
	}
	return e, nil
}
