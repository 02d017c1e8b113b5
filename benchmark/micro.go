package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"terids/internal/cddindex"
	"terids/internal/core"
	"terids/internal/drindex"
	"terids/internal/engine"
	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/snapshot"
	"terids/internal/tokens"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// engineBatch is the in-process submission batch, the server's default
// -ingest-batch.
const engineBatch = 64

// serverQueue is terids-serve's default -queue, so the in-process engine
// buffers what the served one does.
const serverQueue = 256

// deltaGap is how many arrivals apart the two checkpoints of the delta
// measurement are taken.
const deltaGap = 256

func engineConfig(cfg core.Config, onResult func(engine.Result)) engine.Config {
	return engine.Config{Core: cfg, Shards: shards, QueueDepth: serverQueue, ObsOff: true, OnResult: onResult}
}

func submitAll(eng *engine.Engine, recs []*tuple.Record) (blocked time.Duration, err error) {
	for i := 0; i < len(recs); i += engineBatch {
		end := min(i+engineBatch, len(recs))
		t0 := time.Now()
		if err := eng.SubmitBatch(recs[i:end]); err != nil {
			return blocked, err
		}
		blocked += time.Since(t0)
	}
	return blocked, nil
}

// engineClosed is the in-process counterpart of the closed-loop phase: the
// sharded engine fed SubmitBatch x64 as fast as it admits them, no HTTP, no
// WAL, instrumentation off. It also takes the checkpoints the snapshot
// measurements encode.
type engineClosed struct {
	Tps          float64
	SubmitWaitUs float64 // time SubmitBatch blocked, per arrival
	Imbalance    float64
	BarrierMs    float64
	Pairs        [][]pairOut
	Base, Cur    *snapshot.Checkpoint
}

func runEngineClosed(sh *core.Shared, cfg core.Config, recs []*tuple.Record) (*engineClosed, error) {
	out := &engineClosed{Pairs: make([][]pairOut, len(recs))}
	eng, err := engine.New(sh, engineConfig(cfg, func(r engine.Result) {
		out.Pairs[r.Seq] = pairsOut(r.Pairs)
	}))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	cut := len(recs) - deltaGap
	start := time.Now()
	blocked, err := submitAll(eng, recs[:cut])
	if err != nil {
		return nil, err
	}
	// Checkpoint is a barrier: it returns once every submitted arrival has
	// been merged, which ends the timed interval.
	if out.Base, err = eng.Checkpoint(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	out.Tps = float64(cut) / wall.Seconds()
	out.SubmitWaitUs = float64(blocked.Microseconds()) / float64(cut)
	out.Imbalance = eng.Stats().Imbalance

	// The barrier's own cost, on a drained engine.
	barrier := make([]float64, 5)
	for i := range barrier {
		t0 := time.Now()
		if _, err := eng.Checkpoint(); err != nil {
			return nil, err
		}
		barrier[i] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	out.BarrierMs = median(barrier)

	if _, err := submitAll(eng, recs[cut:]); err != nil {
		return nil, err
	}
	if out.Cur, err = eng.Checkpoint(); err != nil {
		return nil, err
	}
	return out, nil
}

// runEngineOpen is the in-process counterpart of the open-loop phase:
// batches are submitted on the workload's schedule and each arrival is timed
// from its batch's scheduled submission to its OnResult callback.
func runEngineOpen(sh *core.Shared, cfg core.Config, recs []*tuple.Record, batch int, rate float64) (p50Us float64, err error) {
	// The submitter needs a P of its own, as the end-to-end generator has a
	// process of its own: woken from its sleep with every P busy running
	// engine stages, it would wait out a scheduler quantum (measured: p50
	// 10 ms instead of 2 ms) and the number would be the Go scheduler's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
	origin := time.Now()
	done := make([]atomic.Int64, len(recs))
	eng, err := engine.New(sh, engineConfig(cfg, func(r engine.Result) {
		done[r.Seq].Store(int64(time.Since(origin)))
	}))
	if err != nil {
		return 0, err
	}
	clk := wallClock{origin: origin}
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	sched := make([]time.Duration, 0, len(recs)/batch+1)
	first := clk.Now() + time.Millisecond
	for i := 0; i < len(recs); i += batch {
		at := first + time.Duration(len(sched))*interval
		sched = append(sched, at)
		clk.SleepUntil(at)
		if err := eng.SubmitBatch(recs[i:min(i+batch, len(recs))]); err != nil {
			eng.Close()
			return 0, err
		}
	}
	if err := eng.Close(); err != nil { // drains
		return 0, err
	}
	lat := make([]float64, len(recs))
	for i := range lat {
		lat[i] = float64(done[i].Load()-int64(sched[i/batch])) / 1e3
	}
	return median(lat), nil
}

func walEntries(recs []*tuple.Record) []wal.Entry {
	out := make([]wal.Entry, len(recs))
	for i, r := range recs {
		vals := make([]string, r.D())
		for j := range vals {
			vals[j] = r.Value(j)
		}
		out[i] = wal.Entry{Seq: int64(i), RID: r.RID, Stream: r.Stream, TupleSeq: r.Seq, EntityID: r.EntityID, Values: vals}
	}
	return out
}

// walCommit times the group commit the engine's durable submit path rides
// on — ReserveN then Ticket.Wait, fsync on — for 8-entry and 64-entry
// batches of the workload's own arrivals.
type walCommit struct {
	B8Us, B64Us   float64
	BytesPerEntry float64
}

const (
	walBatches8  = 100
	walBatches64 = 40
)

func runWALCommit(dir string, recs []*tuple.Record) (*walCommit, error) {
	need := walBatches8*8 + walBatches64*64
	if len(recs) < need {
		return nil, fmt.Errorf("wal commit needs %d arrivals, have %d", need, len(recs))
	}
	entries := walEntries(recs[:need])
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	commit := func(from, size, count int) (float64, error) {
		us := make([]float64, count)
		for b := range us {
			t0 := time.Now()
			tk, err := log.ReserveN(entries[from+b*size:from+(b+1)*size], true)
			if err != nil {
				return 0, err
			}
			if err := tk.Wait(); err != nil {
				return 0, err
			}
			us[b] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return median(us), nil
	}
	out := &walCommit{}
	if out.B8Us, err = commit(0, 8, walBatches8); err == nil {
		out.B64Us, err = commit(walBatches8*8, 64, walBatches64)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	st := log.Stats()
	out.BytesPerEntry = float64(st.Bytes) / float64(st.NextSeq-st.FirstSeq)
	return out, log.Close()
}

// recovery writes the arrivals to a WAL through a durable engine, then times
// reading the log back (wal.Replay alone) and booting an engine from it
// (engine.OpenDurable: replay through the whole pipeline) — the in-process
// halves of recovery_s.
type recovery struct {
	WALReplayTps    float64
	EngineReplayTps float64
}

func runRecovery(dir string, sh *core.Shared, cfg core.Config, recs []*tuple.Record) (*recovery, error) {
	// NoSync while writing: this pass only needs the log to exist.
	dcfg := engine.DurableConfig{Dir: dir, NoSync: true}
	d, err := engine.OpenDurable(sh, engineConfig(cfg, nil), dcfg)
	if err != nil {
		return nil, err
	}
	if _, err := submitAll(d.Eng, recs); err != nil {
		d.Close(false)
		return nil, err
	}
	if err := d.Close(false); err != nil {
		return nil, err
	}

	out := &recovery{}
	log, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	n := 0
	t0 := time.Now()
	err = log.Replay(0, func(wal.Entry) error { n++; return nil })
	out.WALReplayTps = float64(n) / time.Since(t0).Seconds()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if n != len(recs) {
		return nil, fmt.Errorf("wal replay returned %d entries, wrote %d", n, len(recs))
	}

	// OpenDurable returns once the log's last arrival is submitted; the
	// barrier adds the time until it is merged, so the rate is of arrivals
	// fully replayed.
	t0 = time.Now()
	d, err = engine.OpenDurable(sh, engineConfig(cfg, nil), dcfg)
	if err != nil {
		return nil, err
	}
	if _, err := d.Eng.Checkpoint(); err != nil {
		d.Close(false)
		return nil, err
	}
	wall := time.Since(t0)
	replayed := d.Replayed()
	if err := d.Close(false); err != nil {
		return nil, err
	}
	if replayed != int64(len(recs)) {
		return nil, fmt.Errorf("recovery replayed %d arrivals, wrote %d", replayed, len(recs))
	}
	out.EngineReplayTps = float64(replayed) / wall.Seconds()
	return out, nil
}

// snapshotCodec times the checkpoint codec on a full engine state and sizes
// the delta between two checkpoints deltaGap arrivals apart.
type snapshotCodec struct {
	EncodeMs, DecodeMs float64
	Bytes              int
	DeltaRatio         float64
}

func runSnapshot(base, cur *snapshot.Checkpoint) (*snapshotCodec, error) {
	const reps = 5
	out := &snapshotCodec{}
	enc := make([]float64, reps)
	dec := make([]float64, reps)
	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := snapshot.Encode(&buf, cur); err != nil {
			return nil, err
		}
		enc[i] = float64(time.Since(t0).Microseconds()) / 1e3
		t0 = time.Now()
		if _, err := snapshot.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
		dec[i] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	out.EncodeMs, out.DecodeMs, out.Bytes = median(enc), median(dec), buf.Len()
	d, err := snapshot.ComputeDelta(base, cur)
	if err != nil {
		return nil, err
	}
	var dbuf bytes.Buffer
	if err := snapshot.EncodeDelta(&dbuf, d); err != nil {
		return nil, err
	}
	out.DeltaRatio = float64(dbuf.Len()) / float64(buf.Len())
	return out, nil
}

// jaccardPairs is how many token-set pairs tokens.Jaccard is timed over.
const jaccardPairs = 1_000_000

// sink keeps the compiler from discarding the timed Jaccard calls.
var sink float64

// runJaccard times tokens.Jaccard over pairs sampled the way the workload
// uses it: an arriving value against repository values of the same
// attribute when the workload imputes, against other arrivals' values when
// it only resolves.
func runJaccard(in *input, repo *repository.Repository, recs []*tuple.Record, seed int64) (nsPerCall float64) {
	d := repo.Schema().D()
	left := make([][]tokens.Set, d)
	right := make([][]tokens.Set, d)
	for _, r := range recs {
		for j := 0; j < d; j++ {
			if !r.IsMissing(j) {
				left[j] = append(left[j], r.Tokens(j))
			}
		}
	}
	for j := 0; j < d; j++ {
		if in.w.Xi == 0 {
			right[j] = left[j]
			continue
		}
		dom := repo.Domain(j)
		for v := 0; v < dom.Len(); v++ {
			right[j] = append(right[j], dom.Value(v).Toks)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	a := make([]tokens.Set, jaccardPairs)
	b := make([]tokens.Set, jaccardPairs)
	for i := range a {
		j := rng.Intn(d)
		a[i] = left[j][rng.Intn(len(left[j]))]
		b[i] = right[j][rng.Intn(len(right[j]))]
	}
	sum := 0.0
	t0 := time.Now()
	for i := range a {
		sum += tokens.Jaccard(a[i], b[i])
	}
	el := time.Since(t0)
	sink = sum
	return float64(el.Nanoseconds()) / jaccardPairs
}

// offline times the pre-computation phase's three parts with a span around
// each public call, the way core.Prepare sequences them.
type offline struct {
	PivotS, DetectS, IndexS float64
}

func runOffline(repo *repository.Repository, keywords []string) (*offline, error) {
	pc := core.DefaultPrepareConfig(keywords)
	out := &offline{}
	t0 := time.Now()
	sel, err := pivot.Select(repo, pc.Pivot)
	if err != nil {
		return nil, err
	}
	out.PivotS = time.Since(t0).Seconds()

	t0 = time.Now()
	set := rules.Detect(repo, pc.Detect)
	out.DetectS = time.Since(t0).Seconds()

	t0 = time.Now()
	for j := 0; j < repo.Schema().D(); j++ {
		repo.Domain(j).BuildIndex(sel.Main(j))
		if _, err := cddindex.Build(set, j, sel); err != nil {
			return nil, err
		}
	}
	if _, err := drindex.Build(repo, sel, tokens.New(keywords...)); err != nil {
		return nil, err
	}
	out.IndexS = time.Since(t0).Seconds()
	return out, nil
}
