package engine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/snapshot"
	"terids/internal/tuple"
)

// zipfStream reorders the fixture stream so topic mass arrives Zipf-skewed:
// records are bucketed by a topic proxy (the hash of their first attribute)
// and interleaved with 1/rank² weights, so the head of the stream is
// dominated by one bucket — the skew pattern the TER experiments highlight
// and the case placement by topic handles worst. Deterministic.
func zipfStream(recs []*tuple.Record) []*tuple.Record {
	const buckets = 8
	type ranked struct {
		prio float64
		b, i int
		r    *tuple.Record
	}
	var all []ranked
	idx := make([]int, buckets)
	for _, r := range recs {
		b := int(fnv32a(r.Value(0)) % buckets)
		w := 1.0 / float64((b+1)*(b+1))
		idx[b]++
		all = append(all, ranked{prio: float64(idx[b]) / w, b: b, i: idx[b], r: r})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].prio != all[j].prio {
			return all[i].prio < all[j].prio
		}
		if all[i].b != all[j].b {
			return all[i].b < all[j].b
		}
		return all[i].i < all[j].i
	})
	out := make([]*tuple.Record, len(all))
	for i := range all {
		out[i] = all[i].r
	}
	return out
}

// runProcessorOn replays an arbitrary record sequence through the
// single-threaded reference.
func runProcessorOn(t *testing.T, f fixture, recs []*tuple.Record) ([][]core.Pair, []core.Pair) {
	t.Helper()
	proc, err := core.NewProcessor(f.sh, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	perArrival := make([][]core.Pair, 0, len(recs))
	for _, r := range recs {
		pairs, err := proc.Advance(r)
		if err != nil {
			t.Fatal(err)
		}
		perArrival = append(perArrival, pairs)
	}
	return perArrival, proc.Results().Pairs()
}

// TestRebalanceEquivalenceUnderSkew is the acceptance property test of
// changing K by restart: a Zipfian-skewed stream runs on a durable K=2
// engine, is SIGKILLed (directory clone) at a pseudo-random point after a
// checkpoint, recovers at K=3 — replaying the WAL suffix at the new K — and
// finishes the stream there; a clean reboot then resumes at K=5. The merged
// output — pair identities, order, probabilities, replayed and live alike —
// must be byte-identical to an uninterrupted fixed-K run. Run under -race in
// CI.
func TestRebalanceEquivalenceUnderSkew(t *testing.T) {
	f := loadFixture(t)
	zs := zipfStream(f.stream)
	n := len(zs)
	wantPerArrival, wantFinal := runProcessorOn(t, f, zs)

	// The uninterrupted fixed-K reference engine: guards that the Processor
	// reference and a plain K=4 engine agree on this skewed stream before
	// any K change enters the picture.
	fixed := newCollector()
	engFixed, err := New(f.sh, Config{Core: f.cfg, Shards: 4, OnResult: fixed.onResult})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range zs {
		if err := engFixed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := engFixed.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range wantPerArrival {
		if !samePairs(wantPerArrival[i], fixed.pairs[int64(i)]) {
			t.Fatalf("fixed-K reference diverged from the Processor at arrival %d", i)
		}
	}

	rng := rand.New(rand.NewSource(2024))
	ckptAt := n/4 + rng.Intn(n/8)
	kill := ckptAt + 1 + rng.Intn(n/4) // recovery replays (ckptAt, kill] at the new K

	dir := t.TempDir()
	col1 := newCollector()
	d1, err := OpenDurable(f.sh,
		Config{Core: f.cfg, Shards: 2, OnResult: col1.onResult},
		DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range zs[:kill] {
		if err := d1.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
		if i+1 == ckptAt {
			if _, err := d1.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	if err := d1.Close(false); err != nil {
		t.Fatal(err)
	}

	col2 := newCollector()
	d2, err := OpenDurable(f.sh,
		Config{Core: f.cfg, Shards: 3, OnResult: col2.onResult},
		DurableConfig{Dir: crashDir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if d2.ResumeSeq() != int64(kill) {
		t.Fatalf("recovered engine resumes at %d, want %d", d2.ResumeSeq(), kill)
	}
	if got := d2.Eng.Stats().Shards; got != 3 {
		t.Fatalf("recovery runs at K=%d, want the configured 3", got)
	}
	for _, r := range zs[kill:] {
		if err := d2.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Close(true); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		got, ok := col1.pairs[int64(i)]
		if i >= kill {
			got, ok = col2.pairs[int64(i)]
		}
		if !ok {
			t.Fatalf("arrival %d never finalized (ckpt=%d kill=%d)", i, ckptAt, kill)
		}
		if !samePairs(wantPerArrival[i], got) {
			t.Fatalf("arrival %d (ckpt=%d kill=%d): got %v, reference %v",
				i, ckptAt, kill, got, wantPerArrival[i])
		}
	}
	if !samePairs(wantFinal, d2.Eng.ResultSet()) {
		t.Fatalf("final entity set differs after crash recovery at a new K (kill=%d)", kill)
	}

	// A clean reboot off the final checkpoint, at yet another K, resumes at
	// the stream's end with nothing to replay.
	d3, err := OpenDurable(f.sh, Config{Core: f.cfg, Shards: 5},
		DurableConfig{Dir: crashDir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if d3.ResumeSeq() != int64(n) || d3.Replayed() != 0 {
		t.Fatalf("clean restart resumes at %d with %d replayed, want %d/0", d3.ResumeSeq(), d3.Replayed(), n)
	}
	if got := d3.Eng.Stats().Shards; got != 5 {
		t.Fatalf("clean restart runs at K=%d, want the configured 5", got)
	}
	if !samePairs(wantFinal, d3.Eng.ResultSet()) {
		t.Fatal("clean restart entity set differs")
	}
	if err := d3.Close(false); err != nil {
		t.Fatal(err)
	}
}

// withSlotTable re-encodes c the way builds with online resharding wrote
// it — a v2 file whose slot table maps 256 hash slots onto c's shards — and
// decodes it back.
func withSlotTable(t *testing.T, c *snapshot.Checkpoint) *snapshot.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, c); err != nil {
		t.Fatal(err)
	}
	const hdr = len(snapshot.Magic) + 10 // magic, version u16, length u64
	b := buf.Bytes()
	payload := bytes.Clone(b[hdr : len(b)-4-1]) // drop the crc and the empty table
	rng := rand.New(rand.NewSource(7))
	payload = binary.AppendUvarint(payload, 256)
	for i := 0; i < 256; i++ {
		payload = binary.AppendUvarint(payload, uint64(rng.Intn(c.Shards)))
	}
	out := append([]byte(snapshot.Magic), 0, 0)
	binary.LittleEndian.PutUint16(out[len(snapshot.Magic):], snapshot.Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	got, err := snapshot.Decode(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCheckpointCarriesLayout: a checkpoint carries K — which an auto-sizing
// restore adopts — and no slot table; a table found in a v2 file written by
// an older build is skipped on decode, every resident going to
// fnv32a(RID) mod K whatever it says.
func TestCheckpointCarriesLayout(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:60] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Shards != 3 {
		t.Fatalf("checkpoint carries K=%d, want 3", c.Shards)
	}
	c = withSlotTable(t, c)

	cases := []struct {
		name   string
		shards int
		wantK  int
	}{
		{"same K ignores the table", 3, 3},
		{"auto K adopts everything", 0, 3},
		{"different K falls back to default", 5, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: tc.shards}, c)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if got := e2.Stats().Shards; got != tc.wantK {
				t.Fatalf("restored K=%d, want %d", got, tc.wantK)
			}
			placed := 0
			for _, s := range e2.shards {
				for rid := range s.seqOf {
					placed++
					if want := homeShard(rid, tc.wantK); s.id != want {
						t.Fatalf("resident %s restored on shard %d, want %d", rid, s.id, want)
					}
				}
			}
			if placed != len(c.Residents) {
				t.Fatalf("%d residents placed, checkpoint holds %d", placed, len(c.Residents))
			}
		})
	}
}

// TestAdoptionCapsShardCount: a tampered checkpoint claiming a huge shard
// count must not make an auto-sizing restore (Shards=0) spawn that many
// shard workers — CRC protects integrity, not authenticity.
func TestAdoptionCapsShardCount(t *testing.T) {
	f := loadFixture(t)
	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream[:20] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Tamper: an absurd shard count (Validate does not bound it).
	c.Shards = 100000
	e2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: 0}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Stats().Shards; got > MaxShards {
		t.Fatalf("restore adopted K=%d from a tampered checkpoint, cap is %d", got, MaxShards)
	}
}

// TestRebalanceResizesImputeWorkers pins the impute-pool sizing contract
// across a K change by restart: the pool has one worker per shard, so a K=2
// checkpoint restored at K=4 runs four workers, and the engine keeps
// processing correctly after the resize.
func TestRebalanceResizesImputeWorkers(t *testing.T) {
	f := loadFixture(t)
	_, wantFinal := runProcessor(t, f)
	half := len(f.stream) / 2

	eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().ImputeWorkers; got != 2 {
		t.Fatalf("K=2 engine starts with %d impute workers, want 2", got)
	}
	for _, r := range f.stream[:half] {
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := NewFromSnapshot(f.sh, Config{Core: f.cfg, Shards: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng2.Stats(); st.Shards != 4 || st.ImputeWorkers != 4 {
		t.Fatalf("restore at K=4 runs %d shards and %d impute workers, want 4 and 4", st.Shards, st.ImputeWorkers)
	}
	for _, r := range f.stream[half:] {
		if err := eng2.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if !samePairs(wantFinal, eng2.ResultSet()) {
		t.Fatal("final entity set differs after the restore at K=4")
	}
}

// TestBalanceIsAProperty: with residents placed by RID hash the shard load is
// even by construction — nothing runs here but the pipeline. A Zipf-reordered
// Citations stream (1 960 arrivals) runs at K=4 over 2×200-tuple windows;
// once they are full, Imbalance() is sampled after every flushed batch and
// must never exceed 1.25, and the per-shard resident counts must add up to
// the window population (no resident counted twice).
//
// On this input placement by fnv32a(RID) reads mean 1.089, worst 1.180 over
// 97 samples; the parent commit, which placed by dominant topic, read mean
// 1.169, worst 1.300 (per shard 105/74/91/130 at the first full-window
// sample) and fails this test.
func TestBalanceIsAProperty(t *testing.T) {
	prof, err := dataset.ProfileByName("Citations")
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Generate(prof, dataset.Options{
		Scale: 4, MissingRate: 0.3, MissingAttrs: 1, RepoRatio: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := core.Prepare(data.Repo, core.DefaultPrepareConfig(data.Keywords))
	if err != nil {
		t.Fatal(err)
	}
	const w, streams, k = 200, 2, 4
	eng, err := New(sh, Config{
		Core: core.Config{
			Keywords: data.Keywords, Gamma: 0.5 * float64(data.Schema.D()), Alpha: 0.4,
			WindowSize: w, Streams: streams,
		},
		Shards: k, ObsOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	zs := zipfStream(data.Stream)
	var seen [streams]int
	samples, worst, sum := 0, 0.0, 0.0
	for off := 0; off < len(zs); off += 16 {
		batch := zs[off:min(off+16, len(zs))]
		if err := eng.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			seen[r.Stream]++
		}
		if seen[0] < w || seen[1] < w {
			continue // windows still filling
		}
		st := eng.Stats()
		var residents int64
		for _, ss := range st.PerShard {
			residents += ss.Residents
		}
		if residents != w*streams {
			t.Fatalf("after %d arrivals the shards hold %d residents, the windows %d", off+len(batch), residents, w*streams)
		}
		samples++
		sum += st.Imbalance
		worst = max(worst, st.Imbalance)
		if st.Imbalance > 1.25 {
			t.Fatalf("after %d arrivals imbalance is %.3f (per shard %+v), want <= 1.25", off+len(batch), st.Imbalance, st.PerShard)
		}
	}
	if samples < 50 {
		t.Fatalf("only %d samples with full windows: stream too short for the test", samples)
	}
	t.Logf("%d samples, mean imbalance %.3f, worst %.3f", samples, sum/float64(samples), worst)
}
