package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Seq:         12,
		Completed:   12,
		Rejected:    1,
		Shards:      4,
		Streams:     2,
		WindowSize:  5,
		Gamma:       1.5,
		Alpha:       0.4,
		Keywords:    []string{"deep", "learning"},
		SchemaAttrs: []string{"title", "venue", "year"},
		Residents: []Resident{
			{ArrivalSeq: 3, RID: "a1", Stream: 0, Seq: 3, EntityID: 7,
				Values: []string{"deep nets", "nips", "2014"}},
			{ArrivalSeq: 5, RID: "b9", Stream: 1, Seq: 4, EntityID: -1,
				Values: []string{"deep nets", "-", "2014"}},
			{ArrivalSeq: 11, RID: "c2", Stream: 0, Seq: 9, EntityID: 7,
				Values: []string{"-", "nips", "2015"}},
		},
		Pairs: []PairRef{{A: 0, B: 1, Prob: 0.75}},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != c.Seq || got.Completed != c.Completed || got.Rejected != c.Rejected ||
		got.Shards != c.Shards || got.Streams != c.Streams || got.WindowSize != c.WindowSize ||
		got.Gamma != c.Gamma || got.Alpha != c.Alpha {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	if len(got.Keywords) != len(c.Keywords) || got.Keywords[0] != "deep" {
		t.Fatalf("keywords %v", got.Keywords)
	}
	if len(got.SchemaAttrs) != 3 || got.SchemaAttrs[2] != "year" {
		t.Fatalf("schema %v", got.SchemaAttrs)
	}
	if len(got.Residents) != len(c.Residents) {
		t.Fatalf("residents %d, want %d", len(got.Residents), len(c.Residents))
	}
	for i, r := range got.Residents {
		w := c.Residents[i]
		if r.ArrivalSeq != w.ArrivalSeq || r.RID != w.RID || r.Stream != w.Stream ||
			r.Seq != w.Seq || r.EntityID != w.EntityID {
			t.Fatalf("resident %d: %+v, want %+v", i, r, w)
		}
		for j := range r.Values {
			if r.Values[j] != w.Values[j] {
				t.Fatalf("resident %d value %d: %q, want %q", i, j, r.Values[j], w.Values[j])
			}
		}
	}
	if len(got.Pairs) != 1 || got.Pairs[0] != c.Pairs[0] {
		t.Fatalf("pairs %v", got.Pairs)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(Magic)+10+4] ^= 0xff
		if _, err := Decode(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted decode err = %v, want checksum mismatch", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := Decode(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad-magic decode err = %v", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(Magic)] = 99
		if _, err := Decode(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Fatalf("version decode err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(Magic) + 3, len(good) / 2, len(good) - 1} {
			if _, err := Decode(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation at %d bytes decoded successfully", n)
			}
		}
	})
}

// TestDecodeRejectsOversizedCounts: a tiny file with a valid checksum but a
// huge section count must fail before any count-sized allocation happens.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	var p writer
	p.varint(1)        // seq
	p.varint(1)        // completed
	p.varint(0)        // rejected
	p.varint(1)        // shards
	p.varint(2)        // streams
	p.varint(5)        // window size
	p.varint(0)        // time span
	p.float(1)         // gamma
	p.float(.5)        // alpha
	p.uvarint(1 << 27) // keyword count with no data behind it
	payload := p.buf.Bytes()

	var buf bytes.Buffer
	buf.WriteString(Magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], Version)
	buf.Write(u16[:])
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(payload)))
	buf.Write(u64[:])
	buf.Write(payload)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	buf.Write(sum[:])

	_, err := Decode(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "section length") {
		t.Fatalf("crafted-count decode err = %v, want section-length rejection", err)
	}
}

// headerLen is the envelope bytes before the payload: magic, version u16,
// payload length u64.
const headerLen = len(Magic) + 10

// reframe wraps a (possibly altered) payload in a fresh envelope with a
// valid checksum.
func reframe(tb testing.TB, ver uint16, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, ver, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// slotTableFile returns the sample checkpoint's encoding and the same v2
// file with a non-empty 256-entry slot table, the way builds with online
// resharding wrote it.
func slotTableFile(tb testing.TB) (plain, withTable []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sampleCheckpoint()); err != nil {
		tb.Fatal(err)
	}
	plain = buf.Bytes()
	payload := plain[headerLen : len(plain)-4]
	if payload[len(payload)-1] != 0 {
		tb.Fatal("encoder did not end the payload with an empty slot table")
	}
	var table writer
	table.uvarint(256)
	for i := 0; i < 256; i++ {
		table.uvarint(uint64(i % 4))
	}
	spliced := append(bytes.Clone(payload[:len(payload)-1]), table.buf.Bytes()...)
	return plain, reframe(tb, Version, spliced)
}

// TestDecodeRefusesTimeSpan: the header's time-span slot is always written
// as 0; a file carrying any other value asks for a time-based window, which
// does not exist, and is refused by name.
func TestDecodeRefusesTimeSpan(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	var pre writer // the six header varints ahead of the time span
	for _, v := range []int64{c.Seq, c.Completed, c.Rejected, int64(c.Shards), int64(c.Streams), int64(c.WindowSize)} {
		pre.varint(v)
	}
	payload := bytes.Clone(buf.Bytes()[headerLen : buf.Len()-4])
	if payload[pre.buf.Len()] != 0 {
		t.Fatalf("time-span slot holds %#x, want the 0 written for count-based windows", payload[pre.buf.Len()])
	}
	payload[pre.buf.Len()] = 0x0a // varint 5
	_, err := Decode(bytes.NewReader(reframe(t, Version, payload)))
	if err == nil || !strings.Contains(err.Error(), "time span 5") {
		t.Fatalf("decode of a time-span-5 checkpoint: err = %v, want a refusal naming the time span", err)
	}
}

// TestDecodeSkipsSlotTable: a v2 file whose slot table is non-empty — the
// way builds with online resharding wrote it — decodes to the same
// checkpoint as the table-less file, and re-encodes to exactly those bytes.
func TestDecodeSkipsSlotTable(t *testing.T) {
	plain, withTable := slotTableFile(t)
	got, err := Decode(bytes.NewReader(withTable))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleCheckpoint()) {
		t.Fatalf("table-bearing file decoded to %+v, want the sample checkpoint", got)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain) {
		t.Fatal("re-encoding a table-bearing file differs from the table-less encoding")
	}
}

// TestCommittedSeedsReencode: every checkpoint in the committed fuzz corpus
// that decodes re-encodes to the same bytes, except that a slot table is
// written back empty — so the table-bearing v2 seed re-encodes to the plain
// v2 seed, and the v3 delta seed to the delta of the sample checkpoints.
// The corrupt seeds still fail to decode.
func TestCommittedSeedsReencode(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	seed := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a []byte fuzz corpus entry", name)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return []byte(b)
	}
	reencode := func(name string) []byte {
		t.Helper()
		c, d, err := DecodeAny(bytes.NewReader(seed(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if c != nil {
			err = Encode(&buf, c)
		} else {
			err = EncodeDelta(&buf, d)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return buf.Bytes()
	}
	plain := seed("seed-v2-plain")
	if !bytes.Equal(reencode("seed-v2-plain"), plain) {
		t.Error("seed-v2-plain does not re-encode to its own bytes")
	}
	if !bytes.Equal(reencode("seed-v2-slot-table"), plain) {
		t.Error("seed-v2-slot-table does not re-encode to seed-v2-plain")
	}
	d, err := ComputeDelta(sampleCheckpoint(), evolvedCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := EncodeDelta(&want, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencode("seed-v3-delta"), want.Bytes()) {
		t.Error("seed-v3-delta does not re-encode to the sample delta")
	}
	for _, name := range []string{"seed-flipped-byte", "seed-truncated", "seed-v3-delta-corrupt", "seed-v3-delta-truncated"} {
		if _, _, err := DecodeAny(bytes.NewReader(seed(name))); err == nil {
			t.Errorf("%s decoded without error", name)
		}
	}
}

func TestValidateRejectsBadStructure(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Checkpoint)
	}{
		{"arrival beyond watermark", func(c *Checkpoint) { c.Residents[2].ArrivalSeq = c.Seq }},
		{"non-ascending arrivals", func(c *Checkpoint) { c.Residents[1].ArrivalSeq = 3 }},
		{"value arity", func(c *Checkpoint) { c.Residents[0].Values = c.Residents[0].Values[:2] }},
		{"pair out of range", func(c *Checkpoint) { c.Pairs[0].B = 99 }},
		{"pair not normalized", func(c *Checkpoint) { c.Pairs[0] = PairRef{A: 1, B: 0, Prob: 0.5} }},
		{"stream out of range", func(c *Checkpoint) { c.Residents[0].Stream = 2 }},
		{"empty rid", func(c *Checkpoint) { c.Residents[0].RID = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := sampleCheckpoint()
			tc.mut(c)
			if err := c.Validate(); err == nil {
				t.Fatal("Validate accepted a structurally broken checkpoint")
			}
			var buf bytes.Buffer
			if err := Encode(&buf, c); err == nil {
				t.Fatal("Encode accepted a structurally broken checkpoint")
			}
		})
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	c := sampleCheckpoint()
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != c.Seq || len(got.Residents) != len(c.Residents) {
		t.Fatalf("file roundtrip mismatch: %+v", got)
	}
	// No temp droppings left behind after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after WriteFile, want 1", len(entries))
	}
}

func TestValueInterningCompactsRepeats(t *testing.T) {
	// 200 residents sharing 2 distinct values must encode far smaller than
	// 200 distinct values.
	mk := func(distinct bool) *Checkpoint {
		c := &Checkpoint{
			Seq: 1000, Streams: 2, WindowSize: 500, Gamma: 1, Alpha: 0.5,
			SchemaAttrs: []string{"a"},
		}
		for i := 0; i < 200; i++ {
			v := "the same long repeated attribute value shared by every tuple"
			if distinct {
				v = strings.Repeat("x", 50) + string(rune('0'+i%10)) + strings.Repeat("y", 8) + string(rune('a'+i%26))
			}
			c.Residents = append(c.Residents, Resident{
				ArrivalSeq: int64(i), RID: "r" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Stream: i % 2, Seq: int64(i), EntityID: -1, Values: []string{v},
			})
		}
		return c
	}
	var shared, distinct bytes.Buffer
	if err := Encode(&shared, mk(false)); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&distinct, mk(true)); err != nil {
		t.Fatal(err)
	}
	if shared.Len() >= distinct.Len()/2 {
		t.Fatalf("interned encoding %dB not compact vs distinct %dB", shared.Len(), distinct.Len())
	}
}
