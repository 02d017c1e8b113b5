package core

import (
	"bytes"
	"testing"

	"terids/internal/snapshot"
)

func snapshotEquivalence(t *testing.T, cfg Config) {
	t.Helper()
	f := newFixture(t, 11, 60, 120, 0.4)

	// Reference: one uninterrupted run.
	ref, err := NewProcessor(f.shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Pair, len(f.stream))
	for i, r := range f.stream {
		pairs, err := ref.Advance(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pairs
	}
	total := 0
	for _, ps := range want {
		total += len(ps)
	}
	if total == 0 {
		t.Fatal("reference emitted no pairs; fixture too small to be meaningful")
	}

	// Interrupted run: advance to the midpoint, snapshot, roundtrip through
	// the binary format, restore into a fresh processor, and finish.
	mid := len(f.stream) / 2
	first, err := NewProcessor(f.shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:mid] {
		if _, err := first.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != int64(mid) {
		t.Fatalf("checkpoint watermark %d, want %d", c.Seq, mid)
	}
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	second, err := NewProcessorFromSnapshot(f.shared, cfg, c2)
	if err != nil {
		t.Fatal(err)
	}
	if second.Seq() != int64(mid) {
		t.Fatalf("restored processor at seq %d, want %d", second.Seq(), mid)
	}
	for i, r := range f.stream[mid:] {
		pairs, err := second.Advance(r)
		if err != nil {
			t.Fatal(err)
		}
		w := want[mid+i]
		if len(pairs) != len(w) {
			t.Fatalf("arrival %d: restored emitted %d pairs, reference %d", mid+i, len(pairs), len(w))
		}
		for j := range pairs {
			if pairs[j].A.RID != w[j].A.RID || pairs[j].B.RID != w[j].B.RID || pairs[j].Prob != w[j].Prob {
				t.Fatalf("arrival %d pair %d: restored %v/%v/%v, reference %v/%v/%v",
					mid+i, j, pairs[j].A.RID, pairs[j].B.RID, pairs[j].Prob,
					w[j].A.RID, w[j].B.RID, w[j].Prob)
			}
		}
	}
	gotFinal, wantFinal := second.Results().Pairs(), ref.Results().Pairs()
	if len(gotFinal) != len(wantFinal) {
		t.Fatalf("final entity set: restored %d pairs, reference %d", len(gotFinal), len(wantFinal))
	}
	for i := range gotFinal {
		if gotFinal[i].A.RID != wantFinal[i].A.RID || gotFinal[i].B.RID != wantFinal[i].B.RID ||
			gotFinal[i].Prob != wantFinal[i].Prob {
			t.Fatalf("final pair %d differs: %v vs %v", i, gotFinal[i], wantFinal[i])
		}
	}
}

// TestProcessorSnapshotRestoreEquivalence is the core checkpoint contract:
// snapshot → binary roundtrip → restore → resume emits pairs and
// probabilities identical to an uninterrupted run, count-based windows.
func TestProcessorSnapshotRestoreEquivalence(t *testing.T) {
	snapshotEquivalence(t, testConfig())
}

// TestProcessorRestoreRejectsMismatchedConfig: a checkpoint must not load
// under a configuration that changes which pairs are emitted.
func TestProcessorRestoreRejectsMismatchedConfig(t *testing.T) {
	f := newFixture(t, 3, 40, 40, 0.4)
	p, err := NewProcessor(f.shared, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:20] {
		if _, err := p.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	muts := map[string]func(*Config){
		"gamma":  func(c *Config) { c.Gamma = 1.5 },
		"alpha":  func(c *Config) { c.Alpha = 0.3 },
		"window": func(c *Config) { c.WindowSize = 19 },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mut(&cfg)
			if _, err := NewProcessorFromSnapshot(f.shared, cfg, c); err == nil {
				t.Fatal("restore accepted a checkpoint from a different configuration")
			}
		})
	}
	t.Run("used processor", func(t *testing.T) {
		q, err := NewProcessor(f.shared, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Advance(f.stream[25]); err != nil {
			t.Fatal(err)
		}
		if err := q.Restore(c); err == nil {
			t.Fatal("Restore accepted a processor that has already advanced")
		}
	})
}
