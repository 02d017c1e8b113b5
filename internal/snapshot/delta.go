// Delta (incremental) checkpoints, snapshot format version 3.
//
// A delta captures the operator state at watermark Seq as a diff over the
// checkpoint at watermark BaseSeq: residents that left the windows, residents
// that arrived, and the entity-set pairs that changed — everything keyed by
// RID and merge sequence, so applying the delta to its base reproduces the
// full checkpoint bit for bit. Deltas chain: a delta's base may itself be a
// delta, terminating at a full snapshot. The background checkpointer writes a
// full snapshot every N deltas so chains stay short and a single corrupt file
// costs at most one chain.
//
// The window model makes deltas naturally small: between two checkpoints at
// watermarks B < S, every surviving resident is unchanged, every departed
// resident is named by RID, and every new resident carries an arrival
// sequence in [B, S) — so the delta's size tracks the arrival rate between
// checkpoints, not the window size.
package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// DeltaPair is one entity-set change, keyed by the pair's normalized RIDs
// (A < B).
type DeltaPair struct {
	A, B string
	Prob float64
}

// Delta is the state at watermark Seq expressed as a diff over the
// checkpoint at watermark BaseSeq. The problem-configuration fingerprint is
// not repeated: it is inherited from the base on apply (ComputeDelta refuses
// bases with a different configuration).
type Delta struct {
	// BaseSeq is the watermark of the checkpoint this delta applies to.
	BaseSeq int64
	// Seq, Completed, Rejected, Shards mirror Checkpoint at the new
	// watermark.
	Seq       int64
	Completed int64
	Rejected  int64
	Shards    int

	// RemovedRIDs names the base residents no longer window-live at Seq (or
	// replaced by a re-arrival under the same RID), in base order.
	RemovedRIDs []string
	// Added holds the residents live at Seq that the base does not carry, in
	// ascending ArrivalSeq order; every arrival sequence is in [BaseSeq, Seq).
	Added []Resident
	// RemovedPairs / AddedPairs are the entity-set diff by normalized RID
	// pair; an added pair overwrites any base pair with the same key (a
	// refreshed probability).
	RemovedPairs [][2]string
	AddedPairs   []DeltaPair
}

// Validate checks the delta's structural invariants.
func (d *Delta) Validate() error {
	if d.BaseSeq < 0 || d.Seq < d.BaseSeq {
		return fmt.Errorf("snapshot: delta watermarks base=%d seq=%d not ascending", d.BaseSeq, d.Seq)
	}
	if d.Completed < 0 || d.Rejected < 0 {
		return fmt.Errorf("snapshot: delta negative counters completed=%d rejected=%d", d.Completed, d.Rejected)
	}
	for i, rid := range d.RemovedRIDs {
		if rid == "" {
			return fmt.Errorf("snapshot: delta removed rid %d empty", i)
		}
	}
	last := d.BaseSeq - 1
	for i, r := range d.Added {
		if r.ArrivalSeq <= last {
			return fmt.Errorf("snapshot: delta resident %d arrival seq %d not ascending past base %d (prev %d)",
				i, r.ArrivalSeq, d.BaseSeq, last)
		}
		last = r.ArrivalSeq
		if r.ArrivalSeq >= d.Seq {
			return fmt.Errorf("snapshot: delta resident %s arrival seq %d beyond watermark %d",
				r.RID, r.ArrivalSeq, d.Seq)
		}
		if r.RID == "" {
			return fmt.Errorf("snapshot: delta resident %d has empty RID", i)
		}
		if r.Stream < 0 {
			return fmt.Errorf("snapshot: delta resident %s has negative stream %d", r.RID, r.Stream)
		}
	}
	for i, p := range d.RemovedPairs {
		if p[0] == "" || p[0] >= p[1] {
			return fmt.Errorf("snapshot: delta removed pair %d (%q,%q) not RID-normalized", i, p[0], p[1])
		}
	}
	for i, p := range d.AddedPairs {
		if p.A == "" || p.A >= p.B {
			return fmt.Errorf("snapshot: delta added pair %d (%q,%q) not RID-normalized", i, p.A, p.B)
		}
	}
	return nil
}

// sameConfig reports whether two checkpoints fingerprint the same problem
// configuration — the precondition for expressing one as a diff of the other.
func sameConfig(a, b *Checkpoint) bool {
	return a.Streams == b.Streams && a.WindowSize == b.WindowSize &&
		a.Gamma == b.Gamma && a.Alpha == b.Alpha &&
		slices.Equal(a.Keywords, b.Keywords) && slices.Equal(a.SchemaAttrs, b.SchemaAttrs)
}

func pairKey(a, b string) string { return a + "\x00" + b }

// ComputeDelta expresses cur as a diff over base. ApplyDelta(base, delta)
// reproduces cur exactly — residents, pair set, probabilities, and ordering.
//
//terids:deterministic
func ComputeDelta(base, cur *Checkpoint) (*Delta, error) {
	if !sameConfig(base, cur) {
		return nil, fmt.Errorf("snapshot: delta across different problem configurations (base seq %d, cur seq %d)",
			base.Seq, cur.Seq)
	}
	if cur.Seq < base.Seq {
		return nil, fmt.Errorf("snapshot: delta base watermark %d is newer than target %d", base.Seq, cur.Seq)
	}
	d := &Delta{
		BaseSeq:   base.Seq,
		Seq:       cur.Seq,
		Completed: cur.Completed,
		Rejected:  cur.Rejected,
		Shards:    cur.Shards,
	}
	baseRes := make(map[string]*Resident, len(base.Residents))
	for i := range base.Residents {
		baseRes[base.Residents[i].RID] = &base.Residents[i]
	}
	curRes := make(map[string]*Resident, len(cur.Residents))
	for i := range cur.Residents {
		r := &cur.Residents[i]
		curRes[r.RID] = r
		if b, ok := baseRes[r.RID]; ok && b.ArrivalSeq == r.ArrivalSeq &&
			b.Stream == r.Stream && b.Seq == r.Seq && b.EntityID == r.EntityID &&
			slices.Equal(b.Values, r.Values) {
			continue // unchanged survivor
		}
		d.Added = append(d.Added, *r)
	}
	for i := range base.Residents {
		r := &base.Residents[i]
		if c, ok := curRes[r.RID]; !ok || c.ArrivalSeq != r.ArrivalSeq {
			d.RemovedRIDs = append(d.RemovedRIDs, r.RID)
		}
	}

	basePairs := make(map[string]float64, len(base.Pairs))
	for _, p := range base.Pairs {
		basePairs[pairKey(base.Residents[p.A].RID, base.Residents[p.B].RID)] = p.Prob
	}
	curKeys := make(map[string]bool, len(cur.Pairs))
	for _, p := range cur.Pairs {
		a, b := cur.Residents[p.A].RID, cur.Residents[p.B].RID
		curKeys[pairKey(a, b)] = true
		if prob, ok := basePairs[pairKey(a, b)]; !ok || prob != p.Prob {
			d.AddedPairs = append(d.AddedPairs, DeltaPair{A: a, B: b, Prob: p.Prob})
		}
	}
	for _, p := range base.Pairs {
		a, b := base.Residents[p.A].RID, base.Residents[p.B].RID
		if !curKeys[pairKey(a, b)] {
			d.RemovedPairs = append(d.RemovedPairs, [2]string{a, b})
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ApplyDelta materializes the full checkpoint at d.Seq from its base. The
// result is exactly the checkpoint ComputeDelta diffed against the base —
// Validate-clean, with residents in ascending arrival order and pairs in the
// canonical sorted-key order.
//
//terids:deterministic
func ApplyDelta(base *Checkpoint, d *Delta) (*Checkpoint, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if base.Seq != d.BaseSeq {
		return nil, fmt.Errorf("snapshot: delta expects base watermark %d, base is at %d", d.BaseSeq, base.Seq)
	}
	out := &Checkpoint{
		Seq:         d.Seq,
		Completed:   d.Completed,
		Rejected:    d.Rejected,
		Shards:      d.Shards,
		Streams:     base.Streams,
		WindowSize:  base.WindowSize,
		Gamma:       base.Gamma,
		Alpha:       base.Alpha,
		Keywords:    slices.Clone(base.Keywords),
		SchemaAttrs: slices.Clone(base.SchemaAttrs),
	}
	removed := make(map[string]bool, len(d.RemovedRIDs))
	for _, rid := range d.RemovedRIDs {
		removed[rid] = true
	}
	// Survivors keep their base order (ascending arrival seq); every added
	// resident arrived after the base watermark, so appending preserves it.
	out.Residents = make([]Resident, 0, len(base.Residents)-len(removed)+len(d.Added))
	for i := range base.Residents {
		if !removed[base.Residents[i].RID] {
			out.Residents = append(out.Residents, base.Residents[i])
		}
	}
	out.Residents = append(out.Residents, d.Added...)

	pairs := make(map[string]DeltaPair, len(base.Pairs)+len(d.AddedPairs))
	for _, p := range base.Pairs {
		a, b := base.Residents[p.A].RID, base.Residents[p.B].RID
		pairs[pairKey(a, b)] = DeltaPair{A: a, B: b, Prob: p.Prob}
	}
	for _, rp := range d.RemovedPairs {
		delete(pairs, pairKey(rp[0], rp[1]))
	}
	for _, ap := range d.AddedPairs {
		pairs[pairKey(ap.A, ap.B)] = ap
	}
	idx := make(map[string]int, len(out.Residents))
	for i := range out.Residents {
		idx[out.Residents[i].RID] = i
	}
	out.Pairs = make([]PairRef, 0, len(pairs))
	//lint:ignore nodeterm iteration order erased: pairs are sorted before encoding below
	for _, p := range pairs {
		a, okA := idx[p.A]
		b, okB := idx[p.B]
		if !okA || !okB {
			return nil, fmt.Errorf("snapshot: delta pair (%s, %s) references a non-resident tuple", p.A, p.B)
		}
		out.Pairs = append(out.Pairs, PairRef{A: a, B: b, Prob: p.Prob})
	}
	// Canonical checkpoint pair order: sorted by (RID(A), RID(B)), matching
	// ResultSet.Pairs — so applying a delta reproduces the full capture
	// byte-for-byte.
	sort.Slice(out.Pairs, func(i, j int) bool {
		a, b := out.Pairs[i], out.Pairs[j]
		if out.Residents[a.A].RID != out.Residents[b.A].RID {
			return out.Residents[a.A].RID < out.Residents[b.A].RID
		}
		return out.Residents[a.B].RID < out.Residents[b.B].RID
	})
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot: applying delta %d→%d: %w", d.BaseSeq, d.Seq, err)
	}
	return out, nil
}

// EncodeDelta writes the delta in the versioned binary envelope (version 3).
func EncodeDelta(w io.Writer, d *Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	var p writer
	p.varint(d.BaseSeq)
	p.varint(d.Seq)
	p.varint(d.Completed)
	p.varint(d.Rejected)
	p.varint(int64(d.Shards))
	p.uvarint(0) // empty slot table
	p.uvarint(uint64(len(d.RemovedRIDs)))
	for _, rid := range d.RemovedRIDs {
		p.str(rid)
	}
	p.uvarint(uint64(len(d.Added)))
	for _, r := range d.Added {
		p.varint(r.ArrivalSeq)
		p.str(r.RID)
		p.varint(int64(r.Stream))
		p.varint(r.Seq)
		p.varint(int64(r.EntityID))
		p.uvarint(uint64(len(r.Values)))
		for _, v := range r.Values {
			p.str(v)
		}
	}
	p.uvarint(uint64(len(d.RemovedPairs)))
	for _, rp := range d.RemovedPairs {
		p.str(rp[0])
		p.str(rp[1])
	}
	p.uvarint(uint64(len(d.AddedPairs)))
	for _, ap := range d.AddedPairs {
		p.str(ap.A)
		p.str(ap.B)
		p.float(ap.Prob)
	}
	return writeEnvelope(w, DeltaVersion, p.buf.Bytes())
}

// DecodeDelta reads one delta checkpoint, rejecting full-checkpoint files.
func DecodeDelta(src io.Reader) (*Delta, error) {
	ver, payload, err := readEnvelope(src)
	if err != nil {
		return nil, err
	}
	if ver != DeltaVersion {
		return nil, fmt.Errorf("snapshot: version-%d file is a full checkpoint, not a delta", ver)
	}
	return decodeDeltaPayload(payload)
}

func decodeDeltaPayload(payload []byte) (*Delta, error) {
	r := &reader{b: bytes.NewReader(payload)}
	d := &Delta{
		BaseSeq:   r.varint(),
		Seq:       r.varint(),
		Completed: r.varint(),
		Rejected:  r.varint(),
		Shards:    int(r.varint()),
	}
	r.skipSlotTable()
	if n := r.count(); r.err == nil {
		d.RemovedRIDs = make([]string, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			d.RemovedRIDs = append(d.RemovedRIDs, r.str())
		}
	}
	if n := r.count(); r.err == nil {
		d.Added = make([]Resident, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			res := Resident{
				ArrivalSeq: r.varint(),
				RID:        r.str(),
				Stream:     int(r.varint()),
				Seq:        r.varint(),
				EntityID:   int(r.varint()),
			}
			nv := r.count()
			if r.err != nil {
				break
			}
			res.Values = make([]string, 0, prealloc(nv))
			for j := 0; j < nv && r.err == nil; j++ {
				res.Values = append(res.Values, r.str())
			}
			if r.err == nil {
				d.Added = append(d.Added, res)
			}
		}
	}
	if n := r.count(); r.err == nil {
		d.RemovedPairs = make([][2]string, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			d.RemovedPairs = append(d.RemovedPairs, [2]string{r.str(), r.str()})
		}
	}
	if n := r.count(); r.err == nil {
		d.AddedPairs = make([]DeltaPair, 0, prealloc(n))
		for i := 0; i < n && r.err == nil; i++ {
			d.AddedPairs = append(d.AddedPairs, DeltaPair{A: r.str(), B: r.str(), Prob: r.float()})
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.b.Len() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing payload bytes", r.b.Len())
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeAny reads either kind of checkpoint file: exactly one of the returns
// is non-nil on success. Recovery code that walks a checkpoint directory uses
// this to sniff full snapshots vs deltas by the envelope version.
func DecodeAny(src io.Reader) (*Checkpoint, *Delta, error) {
	ver, payload, err := readEnvelope(src)
	if err != nil {
		return nil, nil, err
	}
	if ver == DeltaVersion {
		d, err := decodeDeltaPayload(payload)
		return nil, d, err
	}
	c, err := decodeCheckpointPayload(ver, payload)
	return c, nil, err
}

// WriteDeltaFile atomically writes the delta to path (temp file + rename).
func WriteDeltaFile(path string, d *Delta) error {
	return writeFileAtomic(path, func(w io.Writer) error { return EncodeDelta(w, d) })
}

// ReadDeltaFile loads and verifies a delta checkpoint from path.
func ReadDeltaFile(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore walerr read-only load; close cannot lose data
	defer f.Close()
	return DecodeDelta(f)
}
