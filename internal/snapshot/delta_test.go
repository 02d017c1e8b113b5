package snapshot

import (
	"bytes"
	"reflect"
	"testing"
)

// evolvedCheckpoint mutates sampleCheckpoint the way a live window does
// between two checkpoints: one resident expired, two arrived, one pair
// left with its member, one new pair formed.
func evolvedCheckpoint() *Checkpoint {
	c := sampleCheckpoint()
	c.Seq = 20
	c.Completed = 20
	c.Rejected = 2
	c.Shards = 2
	// "a1" (index 0) expired; "b9" and "c2" survive; "d4" and "e5" arrived.
	c.Residents = []Resident{
		c.Residents[1],
		c.Residents[2],
		{ArrivalSeq: 14, RID: "d4", Stream: 1, Seq: 12, EntityID: 7,
			Values: []string{"deep nets", "nips", "2016"}},
		{ArrivalSeq: 17, RID: "e5", Stream: 0, Seq: 15, EntityID: -1,
			Values: []string{"-", "nips", "2016"}},
	}
	// The (a1, b9) pair died with a1; (c2, d4) formed.
	c.Pairs = []PairRef{{A: 1, B: 2, Prob: 0.6}}
	return c
}

// TestDeltaRoundtrip: ComputeDelta → ApplyDelta reproduces the target
// checkpoint exactly, and the delta survives its binary encoding.
func TestDeltaRoundtrip(t *testing.T) {
	base, cur := sampleCheckpoint(), evolvedCheckpoint()
	d, err := ComputeDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if d.BaseSeq != base.Seq || d.Seq != cur.Seq {
		t.Fatalf("delta spans %d→%d, want %d→%d", d.BaseSeq, d.Seq, base.Seq, cur.Seq)
	}
	if len(d.RemovedRIDs) != 1 || d.RemovedRIDs[0] != "a1" {
		t.Fatalf("removed rids %v, want [a1]", d.RemovedRIDs)
	}
	if len(d.Added) != 2 || d.Added[0].RID != "d4" || d.Added[1].RID != "e5" {
		t.Fatalf("added residents %+v, want d4,e5", d.Added)
	}
	if len(d.RemovedPairs) != 1 || d.RemovedPairs[0] != [2]string{"a1", "b9"} {
		t.Fatalf("removed pairs %v, want [(a1,b9)]", d.RemovedPairs)
	}
	if len(d.AddedPairs) != 1 || d.AddedPairs[0].A != "c2" || d.AddedPairs[0].B != "d4" {
		t.Fatalf("added pairs %+v, want (c2,d4)", d.AddedPairs)
	}

	var buf bytes.Buffer
	if err := EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplyDelta(base, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatalf("apply(base, delta) != cur:\n got %+v\nwant %+v", got, cur)
	}
	// A materialized checkpoint must re-encode identically to a direct full
	// capture — the byte-identity the deep-replay path leans on.
	var full, applied bytes.Buffer
	if err := Encode(&full, cur); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&applied, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), applied.Bytes()) {
		t.Fatal("materialized checkpoint encodes differently from the full capture")
	}
}

// TestDeltaReArrival: a RID that expired and re-arrived with new values
// between checkpoints is carried as remove + add, not silently kept.
func TestDeltaReArrival(t *testing.T) {
	base, cur := sampleCheckpoint(), evolvedCheckpoint()
	cur.Residents = append(cur.Residents, Resident{
		ArrivalSeq: 19, RID: "a1", Stream: 0, Seq: 18, EntityID: 7,
		Values: []string{"deeper nets", "nips", "2017"},
	})
	d, err := ComputeDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RemovedRIDs) != 1 || d.RemovedRIDs[0] != "a1" {
		t.Fatalf("removed rids %v, want [a1] (replaced)", d.RemovedRIDs)
	}
	found := false
	for _, r := range d.Added {
		if r.RID == "a1" && r.ArrivalSeq == 19 {
			found = true
		}
	}
	if !found {
		t.Fatalf("re-arrived a1 missing from added residents: %+v", d.Added)
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatal("apply with re-arrival != cur")
	}
}

// TestDeltaEmptyDiff: identical checkpoints produce an empty (but valid,
// applicable) delta — the no-op case a quiet stream hits.
func TestDeltaEmptyDiff(t *testing.T) {
	base := sampleCheckpoint()
	cur := sampleCheckpoint()
	d, err := ComputeDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RemovedRIDs)+len(d.Added)+len(d.RemovedPairs)+len(d.AddedPairs) != 0 {
		t.Fatalf("identical checkpoints produced a non-empty diff: %+v", d)
	}
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatal("empty delta does not reproduce the base")
	}
}

// TestDeltaRejects covers the guard rails: config drift, watermark order,
// wrong base on apply, and the Decode/DecodeDelta version cross-checks.
func TestDeltaRejects(t *testing.T) {
	base, cur := sampleCheckpoint(), evolvedCheckpoint()

	drifted := evolvedCheckpoint()
	drifted.Alpha = 0.9
	if _, err := ComputeDelta(base, drifted); err == nil {
		t.Fatal("delta across different configurations accepted")
	}
	if _, err := ComputeDelta(cur, base); err == nil {
		t.Fatal("delta with a newer base than target accepted")
	}

	d, err := ComputeDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	wrongBase := evolvedCheckpoint()
	if _, err := ApplyDelta(wrongBase, d); err == nil {
		t.Fatal("apply onto a base at the wrong watermark accepted")
	}

	// The two decoders refuse each other's files.
	var db, cb bytes.Buffer
	if err := EncodeDelta(&db, d); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&cb, base); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(db.Bytes())); err == nil {
		t.Fatal("Decode accepted a delta file")
	}
	if _, err := DecodeDelta(bytes.NewReader(cb.Bytes())); err == nil {
		t.Fatal("DecodeDelta accepted a full checkpoint file")
	}
	// DecodeAny sniffs both.
	if c, dd, err := DecodeAny(bytes.NewReader(cb.Bytes())); err != nil || c == nil || dd != nil {
		t.Fatalf("DecodeAny(full) = (%v, %v, %v)", c, dd, err)
	}
	if c, dd, err := DecodeAny(bytes.NewReader(db.Bytes())); err != nil || c != nil || dd == nil {
		t.Fatalf("DecodeAny(delta) = (%v, %v, %v)", c, dd, err)
	}
}

// TestDeltaFileRoundtrip: the atomic file writer + reader path.
func TestDeltaFileRoundtrip(t *testing.T) {
	base, cur := sampleCheckpoint(), evolvedCheckpoint()
	d, err := ComputeDelta(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.dckpt"
	if err := WriteDeltaFile(path, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("delta file roundtrip mismatch:\n got %+v\nwant %+v", d2, d)
	}
}
