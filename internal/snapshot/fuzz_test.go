package snapshot

import (
	"bytes"
	"io"
	"testing"
)

// deltaSeed encodes a representative v3 delta checkpoint so the mutator
// also starts from real delta wire bytes.
func deltaSeed(f *testing.F) []byte {
	f.Helper()
	d, err := ComputeDelta(sampleCheckpoint(), evolvedCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, d); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode hardens restore against arbitrary checkpoint
// corruption — full snapshots (v1/v2) and delta checkpoints (v3) alike:
// random mutations of valid artifacts must never panic or over-allocate —
// corrupt input returns an error. Anything DecodeAny does accept must be
// structurally valid (Validate passes) and re-encodable, so a recovered
// checkpoint can always be checkpointed again.
func FuzzSnapshotDecode(f *testing.F) {
	plain, layout := slotTableFile(f)
	delta := deltaSeed(f)
	f.Add(plain)
	f.Add(layout)
	f.Add(delta)
	f.Add(plain[:len(plain)-2])
	f.Add(plain[:len(Magic)+10])
	f.Add(delta[:len(delta)-3])
	f.Add([]byte{})
	f.Add([]byte("TERIDSCP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, d, err := DecodeAny(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		switch {
		case c != nil:
			if err := c.Validate(); err != nil {
				t.Fatalf("DecodeAny accepted a structurally invalid checkpoint: %v", err)
			}
			if err := Encode(io.Discard, c); err != nil {
				t.Fatalf("decoded checkpoint does not re-encode: %v", err)
			}
		case d != nil:
			if err := d.Validate(); err != nil {
				t.Fatalf("DecodeAny accepted a structurally invalid delta: %v", err)
			}
			if err := EncodeDelta(io.Discard, d); err != nil {
				t.Fatalf("decoded delta does not re-encode: %v", err)
			}
		default:
			t.Fatal("DecodeAny returned neither a checkpoint nor a delta")
		}
	})
}
