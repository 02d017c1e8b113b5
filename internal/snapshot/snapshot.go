// Package snapshot defines the durable checkpoint format of the TER-iDS
// operator: one versioned, checksummed binary blob capturing everything the
// online layers (core.Processor, the sharded engine) need to resume a stream
// at an exact sequence number — the window-resident tuples with their global
// arrival sequences, the live entity set, and the sequence counters.
//
// The encoding is deliberately minimal: derived state (imputation
// distributions, pruning profiles, grid cells, per-shard residency) is NOT
// serialized. It is recomputed deterministically from the resident records on
// restore, which keeps checkpoints compact, makes them independent of the
// shard count K they were taken at, and guarantees the restored derived
// state matches what an uninterrupted run would hold.
//
// Layout (all integers varint/uvarint, strings as uvarint length + bytes):
//
//	magic "TERIDSCP" | version u16 | payload len u64 | payload | crc32(payload)
//
// The payload interns attribute values in a string table and references them
// by index (stream tuples repeat values heavily); entity-set pairs reference
// residents by index instead of repeating RIDs.
//
// A dropped I/O or CRC error here is indistinguishable from corruption, so
// the package opts into the walerr analyzer: every error result must be
// handled or explicitly waived with `_ =`.
//
//terids:strict-errors
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a TER-iDS checkpoint file.
const Magic = "TERIDSCP"

// Version is the current full-checkpoint format version. Version 2 appends
// a shard layout slot table, which this build writes empty and skips on read
// (placement is fnv32a(RID) mod K, derived on restore); Decode still reads
// version-1 files, which carry none. The header's time-span slot is written
// as 0 and a file with any other value is refused: only count-based windows
// exist.
const Version = 2

// DeltaVersion is the format version of incremental (delta) checkpoints: a
// diff over a base checkpoint's residents and entity set, keyed by merge
// sequence (see delta.go). Delta files share the magic and envelope with
// full checkpoints; the version field distinguishes the payloads.
const DeltaVersion = 3

// maxSection bounds every decoded collection length, so a corrupted or
// hostile length prefix cannot drive allocation before the data runs out.
const maxSection = 1 << 28

// maxPrealloc caps the initial capacity of any decoded slice; larger
// sections grow by append as elements actually parse.
const maxPrealloc = 1 << 16

func prealloc(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// Resident is one window-live tuple: the raw record plus its global arrival
// sequence (the engine's merge key and the processor's arrival ordinal).
type Resident struct {
	// ArrivalSeq is the 0-based position of this tuple in the operator's
	// arrival order. Residents are stored in ascending ArrivalSeq order,
	// which is also the grid re-insertion order on restore.
	ArrivalSeq int64
	// RID, Stream, Seq, EntityID mirror tuple.Record.
	RID      string
	Stream   int
	Seq      int64
	EntityID int
	// Values are the raw attribute texts ("-" marks a missing attribute).
	Values []string
}

// PairRef is one live entity-set pair, referencing Residents by index.
// A and B preserve the normalized order (RID(A) < RID(B)).
type PairRef struct {
	A, B int
	Prob float64
}

// Checkpoint is the full restorable state at watermark Seq: every arrival
// with sequence < Seq has been fully processed and is reflected here; no
// later arrival has touched any state.
type Checkpoint struct {
	// Seq is the watermark S: the next arrival sequence to be assigned.
	Seq int64
	// Completed and Rejected restore the operator's progress counters.
	Completed int64
	Rejected  int64
	// Shards is the shard count K at capture time (informational — restore
	// may use any K', residency is re-derived from the topic hash).
	Shards int

	// Problem-configuration fingerprint; restore refuses a checkpoint taken
	// under a different configuration, because result equivalence would not
	// hold.
	Streams     int
	WindowSize  int
	Gamma       float64
	Alpha       float64
	Keywords    []string
	SchemaAttrs []string

	// Residents in ascending ArrivalSeq order.
	Residents []Resident
	// Pairs is the live entity set.
	Pairs []PairRef
}

// Validate checks the checkpoint's structural invariants: ascending arrival
// sequences below the watermark, value arity matching the schema, and pair
// references in range.
func (c *Checkpoint) Validate() error {
	if c.Seq < 0 || c.Completed < 0 || c.Rejected < 0 {
		return fmt.Errorf("snapshot: negative counters seq=%d completed=%d rejected=%d",
			c.Seq, c.Completed, c.Rejected)
	}
	if len(c.SchemaAttrs) == 0 {
		return fmt.Errorf("snapshot: empty schema")
	}
	d := len(c.SchemaAttrs)
	last := int64(-1)
	for i, r := range c.Residents {
		if r.ArrivalSeq <= last {
			return fmt.Errorf("snapshot: resident %d arrival seq %d not ascending (prev %d)",
				i, r.ArrivalSeq, last)
		}
		last = r.ArrivalSeq
		if r.ArrivalSeq >= c.Seq {
			return fmt.Errorf("snapshot: resident %s arrival seq %d beyond watermark %d",
				r.RID, r.ArrivalSeq, c.Seq)
		}
		if r.RID == "" {
			return fmt.Errorf("snapshot: resident %d has empty RID", i)
		}
		if r.Stream < 0 || (c.Streams > 0 && r.Stream >= c.Streams) {
			return fmt.Errorf("snapshot: resident %s stream %d outside [0,%d)",
				r.RID, r.Stream, c.Streams)
		}
		if len(r.Values) != d {
			return fmt.Errorf("snapshot: resident %s has %d values, schema has %d",
				r.RID, len(r.Values), d)
		}
	}
	for i, p := range c.Pairs {
		if p.A < 0 || p.A >= len(c.Residents) || p.B < 0 || p.B >= len(c.Residents) {
			return fmt.Errorf("snapshot: pair %d references residents (%d,%d) of %d",
				i, p.A, p.B, len(c.Residents))
		}
		if c.Residents[p.A].RID >= c.Residents[p.B].RID {
			return fmt.Errorf("snapshot: pair %d not RID-normalized (%s vs %s)",
				i, c.Residents[p.A].RID, c.Residents[p.B].RID)
		}
	}
	return nil
}

// writer accumulates the payload.
type writer struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *writer) float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	w.buf.Write(b[:])
}

// Encode writes the checkpoint to w in the versioned binary format.
//
//terids:deterministic
func Encode(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	var p writer
	p.varint(c.Seq)
	p.varint(c.Completed)
	p.varint(c.Rejected)
	p.varint(int64(c.Shards))
	p.varint(int64(c.Streams))
	p.varint(int64(c.WindowSize))
	p.varint(0) // time span: count-based windows only
	p.float(c.Gamma)
	p.float(c.Alpha)
	p.uvarint(uint64(len(c.Keywords)))
	for _, kw := range c.Keywords {
		p.str(kw)
	}
	p.uvarint(uint64(len(c.SchemaAttrs)))
	for _, a := range c.SchemaAttrs {
		p.str(a)
	}

	// Intern attribute values: the table holds each distinct text once,
	// residents reference it by index.
	var table []string
	index := make(map[string]int)
	intern := func(s string) int {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = len(table)
		table = append(table, s)
		return len(table) - 1
	}
	refs := make([][]int, len(c.Residents))
	for i, r := range c.Residents {
		refs[i] = make([]int, len(r.Values))
		for j, v := range r.Values {
			refs[i][j] = intern(v)
		}
	}
	p.uvarint(uint64(len(table)))
	for _, s := range table {
		p.str(s)
	}

	p.uvarint(uint64(len(c.Residents)))
	for i, r := range c.Residents {
		p.varint(r.ArrivalSeq)
		p.str(r.RID)
		p.varint(int64(r.Stream))
		p.varint(r.Seq)
		p.varint(int64(r.EntityID))
		for _, ref := range refs[i] {
			p.uvarint(uint64(ref))
		}
	}
	p.uvarint(uint64(len(c.Pairs)))
	for _, pr := range c.Pairs {
		p.uvarint(uint64(pr.A))
		p.uvarint(uint64(pr.B))
		p.float(pr.Prob)
	}
	p.uvarint(0) // empty v2 slot table

	return writeEnvelope(w, Version, p.buf.Bytes())
}

// writeEnvelope frames one payload: magic, version, length, payload, crc.
func writeEnvelope(w io.Writer, version uint16, payload []byte) error {
	// Mirror readEnvelope's limit: an oversized checkpoint that encodes fine
	// but can never be read back is silent data loss discovered at restore
	// time.
	if len(payload) > maxSection {
		return fmt.Errorf("snapshot: payload %d bytes exceeds the format limit %d", len(payload), maxSection)
	}
	var hdr bytes.Buffer
	hdr.WriteString(Magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], version)
	hdr.Write(u16[:])
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(payload)))
	hdr.Write(u64[:])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(sum[:])
	return err
}

// reader decodes the payload.
type reader struct {
	b   *bytes.Reader
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.b)
	if err != nil {
		r.err = fmt.Errorf("snapshot: truncated payload: %w", err)
	}
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.b)
	if err != nil {
		r.err = fmt.Errorf("snapshot: truncated payload: %w", err)
	}
	return v
}

func (r *reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	// Every encoded element consumes at least one payload byte, so a count
	// beyond the remaining bytes is corrupt — reject it before any make()
	// sized by it can allocate gigabytes off a tiny crafted file.
	if n > maxSection || n > uint64(r.b.Len()) {
		r.err = fmt.Errorf("snapshot: section length %d exceeds remaining payload %d", n, r.b.Len())
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	if int64(n) > int64(r.b.Len()) {
		r.err = fmt.Errorf("snapshot: string length %d exceeds remaining payload", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.b, b); err != nil {
		r.err = fmt.Errorf("snapshot: truncated string: %w", err)
		return ""
	}
	return string(b)
}

// skipSlotTable reads and discards a v2/v3 shard layout slot table.
func (r *reader) skipSlotTable() {
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		r.uvarint()
	}
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.b, b[:]); err != nil {
		r.err = fmt.Errorf("snapshot: truncated float: %w", err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// readEnvelope reads and verifies one file envelope (magic, version,
// length, checksum) and returns the version plus the raw payload.
func readEnvelope(src io.Reader) (uint16, []byte, error) {
	br := bufio.NewReader(src)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return 0, nil, fmt.Errorf("snapshot: bad magic %q (not a TER-iDS checkpoint)", magic)
	}
	var fixed [10]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	ver := binary.LittleEndian.Uint16(fixed[0:2])
	if ver < 1 || ver > DeltaVersion {
		return 0, nil, fmt.Errorf("snapshot: format version %d, this build reads 1..%d", ver, DeltaVersion)
	}
	size := binary.LittleEndian.Uint64(fixed[2:10])
	if size > maxSection {
		return 0, nil, fmt.Errorf("snapshot: implausible payload size %d", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("snapshot: truncated payload: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if want, got := binary.LittleEndian.Uint32(sum[:]), crc32.ChecksumIEEE(payload); want != got {
		return 0, nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x): corrupt checkpoint", want, got)
	}
	return ver, payload, nil
}

// Decode reads one full checkpoint, verifying magic, version, and checksum
// before parsing, and structural invariants after. A delta file (version 3)
// is rejected — it cannot stand alone; use DecodeAny or DecodeDelta.
func Decode(src io.Reader) (*Checkpoint, error) {
	ver, payload, err := readEnvelope(src)
	if err != nil {
		return nil, err
	}
	if ver == DeltaVersion {
		return nil, fmt.Errorf("snapshot: version-%d file is a delta checkpoint, not a standalone snapshot", ver)
	}
	return decodeCheckpointPayload(ver, payload)
}

// decodeCheckpointPayload parses a full-checkpoint payload (versions 1..2).
func decodeCheckpointPayload(ver uint16, payload []byte) (*Checkpoint, error) {
	r := &reader{b: bytes.NewReader(payload)}
	c := &Checkpoint{
		Seq:        r.varint(),
		Completed:  r.varint(),
		Rejected:   r.varint(),
		Shards:     int(r.varint()),
		Streams:    int(r.varint()),
		WindowSize: int(r.varint()),
	}
	if span := r.varint(); r.err == nil && span != 0 {
		return nil, fmt.Errorf("snapshot: checkpoint time span %d: time-based windows are not supported", span)
	}
	c.Gamma = r.float()
	c.Alpha = r.float()
	// Sections grow by append with a capped initial capacity: a declared
	// count never sizes an allocation beyond maxPrealloc, so memory use is
	// bounded by what the payload actually contains — a corrupt count fails
	// at the first missing element instead of in make().
	if n := r.count(); r.err == nil {
		c.Keywords = make([]string, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			c.Keywords = append(c.Keywords, r.str())
		}
	}
	if n := r.count(); r.err == nil {
		c.SchemaAttrs = make([]string, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			c.SchemaAttrs = append(c.SchemaAttrs, r.str())
		}
	}
	var table []string
	if n := r.count(); r.err == nil {
		table = make([]string, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			table = append(table, r.str())
		}
	}
	if n := r.count(); r.err == nil {
		c.Residents = make([]Resident, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			res := Resident{
				ArrivalSeq: r.varint(),
				RID:        r.str(),
				Stream:     int(r.varint()),
				Seq:        r.varint(),
				EntityID:   int(r.varint()),
			}
			res.Values = make([]string, len(c.SchemaAttrs))
			for j := range res.Values {
				ref := r.uvarint()
				if r.err != nil {
					break
				}
				if ref >= uint64(len(table)) {
					r.err = fmt.Errorf("snapshot: resident %d value ref %d outside table of %d",
						i, ref, len(table))
					break
				}
				res.Values[j] = table[ref]
			}
			if r.err == nil {
				c.Residents = append(c.Residents, res)
			}
		}
	}
	if n := r.count(); r.err == nil {
		c.Pairs = make([]PairRef, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			c.Pairs = append(c.Pairs, PairRef{A: int(r.uvarint()), B: int(r.uvarint()), Prob: r.float()})
		}
	}
	if ver >= 2 {
		r.skipSlotTable()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.b.Len() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing payload bytes", r.b.Len())
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// WriteFile atomically writes the checkpoint to path (temp file + rename, so
// a crash mid-write never clobbers a previous good checkpoint).
func WriteFile(path string, c *Checkpoint) error {
	return writeFileAtomic(path, func(w io.Writer) error { return Encode(w, c) })
}

// writeFileAtomic writes enc's output to path via temp file + rename.
func writeFileAtomic(path string, enc func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".terids-ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := enc(f); err != nil {
		_ = f.Close()      // walerr: the encode failure is the error being returned
		_ = os.Remove(tmp) // walerr: best-effort temp cleanup on the error path
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()      // walerr: the sync failure is the error being returned
		_ = os.Remove(tmp) // walerr: best-effort temp cleanup on the error path
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp) // walerr: best-effort temp cleanup on the error path
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // walerr: best-effort temp cleanup on the error path
		return err
	}
	// Fsync the directory so the rename itself is durable: callers (e.g. the
	// WAL checkpointer) delete now-redundant state right after WriteFile
	// returns, and a power loss must not be able to lose both.
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

// ReadFile loads and verifies a checkpoint from path.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore walerr read-only load; close cannot lose data
	defer f.Close()
	return Decode(f)
}
