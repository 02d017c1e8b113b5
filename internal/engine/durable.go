// Durability: the arrival WAL plus a background checkpointer turn the
// engine's barrier checkpoints into exact recovery points. The WAL records
// the accepted arrival stream — the only non-derivable online state — so
// recovery is: restore the newest snapshot, then replay the logged arrivals
// past its watermark through the normal pipeline. The replayed run is
// byte-identical (pair identities, order, probabilities) to an uninterrupted
// one, at any shard count K'.
//
// On-disk layout under one durability directory:
//
//	<dir>/<seq>.wal                           arrival log segments (internal/wal)
//	<dir>/checkpoints/ckpt-<seq>.ckpt         full snapshots (internal/snapshot), atomic
//	<dir>/checkpoints/delta-<seq>-<base>.dckpt  v3 delta checkpoints (diff over base)
//
// The checkpointer goroutine periodically runs the engine's barrier
// Checkpoint and writes it atomically (temp + rename) — as a delta over the
// previous checkpoint when DeltaEvery allows, as a full snapshot otherwise —
// prunes all but the newest KeepCheckpoints states (keeping every base a
// retained delta chain references), and truncates WAL segments older than
// the oldest base still retained — so every retained state, not just the
// newest, keeps the WAL suffix it needs for exact recovery (the
// corrupt-newest fallback in LatestCheckpoint depends on this, and deep
// replay regenerates historical results from exactly that coverage).
package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terids/internal/core"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// checkpointSubdir is the snapshot directory under the durability root.
const checkpointSubdir = "checkpoints"

// ckptPrefix/ckptSuffix frame full-snapshot filenames; the middle is the
// zero-padded watermark, so lexicographic order is watermark order.
// Delta checkpoints are named delta-<seq>-<base>.dckpt: the filename carries
// both watermarks so pruning and chain resolution never have to open files.
const (
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".ckpt"
	deltaPrefix = "delta-"
	deltaSuffix = ".dckpt"
)

// maxChainDepth bounds delta-chain walks against corrupt or adversarial
// directories; honest chains are at most DeltaEvery long.
const maxChainDepth = 4096

// ckptFile is one parsed checkpoint filename: a full snapshot (base < 0) or
// a delta over the state at base.
type ckptFile struct {
	name string
	seq  int64
	base int64
}

func ckptName(seq int64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptSuffix)
}

func deltaName(seq, base int64) string {
	return fmt.Sprintf("%s%020d-%020d%s", deltaPrefix, seq, base, deltaSuffix)
}

// parseCkptFileName recognizes both checkpoint filename shapes.
func parseCkptFileName(name string) (ckptFile, bool) {
	if strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix) {
		seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
		if err != nil || seq < 0 {
			return ckptFile{}, false
		}
		return ckptFile{name: name, seq: seq, base: -1}, true
	}
	if strings.HasPrefix(name, deltaPrefix) && strings.HasSuffix(name, deltaSuffix) {
		mid := strings.TrimSuffix(strings.TrimPrefix(name, deltaPrefix), deltaSuffix)
		seqStr, baseStr, ok := strings.Cut(mid, "-")
		if !ok {
			return ckptFile{}, false
		}
		seq, err1 := strconv.ParseInt(seqStr, 10, 64)
		base, err2 := strconv.ParseInt(baseStr, 10, 64)
		if err1 != nil || err2 != nil || base < 0 || seq <= base {
			return ckptFile{}, false
		}
		return ckptFile{name: name, seq: seq, base: base}, true
	}
	return ckptFile{}, false
}

// DurableConfig tunes the durability subsystem around an engine.
type DurableConfig struct {
	// Dir is the durability root: WAL segments live directly in it,
	// snapshots under Dir/checkpoints.
	Dir string
	// CheckpointInterval enables the background checkpointer when > 0.
	CheckpointInterval time.Duration
	// KeepCheckpoints bounds retained checkpoint states. Default: 2. A delta
	// state keeps its whole base chain on disk, so the file count (and the
	// WAL suffix, which is truncated at the oldest base still needed) can
	// exceed this by up to DeltaEvery.
	KeepCheckpoints int
	// DeltaEvery, when > 0, makes the checkpointer write incremental (delta)
	// checkpoints — a diff over the previous checkpoint, snapshot format v3 —
	// with a full snapshot every DeltaEvery deltas. 0 writes only full
	// snapshots.
	DeltaEvery int
	// SegmentBytes / QueueDepth / NoSync pass through to the WAL.
	SegmentBytes int64
	QueueDepth   int
	NoSync       bool
	// Checkpoint, when set, skips discovery: recovery restores from this
	// pre-loaded snapshot (CheckpointPath names it for stats). Callers that
	// need the watermark before building the engine (e.g. to base a replay
	// ring) load it via LatestCheckpoint and hand it over here.
	Checkpoint     *snapshot.Checkpoint
	CheckpointPath string
	// Logf, when set, receives checkpointer progress and errors.
	Logf func(format string, args ...any)
}

func (d *DurableConfig) fill() {
	if d.KeepCheckpoints <= 0 {
		d.KeepCheckpoints = 2
	}
	if d.Logf == nil {
		d.Logf = func(string, ...any) {}
	}
}

// Durable is the one handle on a durability directory, from boot to
// Close. OpenDurable opens it writing: the engine submits through the WAL
// and a checkpointer runs. OpenFollower opens it following: a read-only
// tailer feeds the engine, and Promote flips it to writing.
type Durable struct {
	// Eng is the recovered (or fresh) engine; submissions go through it as
	// usual and are made durable by the attached WAL.
	Eng *Engine
	// Log is the arrival WAL, nil while the handle is following. Owned by the
	// Durable handle: Close closes it after the engine.
	Log *wal.Log

	cfg           DurableConfig
	recoveredFrom string
	restored      *snapshot.Checkpoint
	replayed      int64
	resumeSeq     int64

	// sh/engCfg are what OpenDurable built the engine from; deep replay
	// reuses them to spin up throwaway engines over the same shared state.
	sh     *core.Shared
	engCfg Config

	ckptMu       sync.Mutex
	lastCkptSeq  int64
	lastCkptPath string
	lastCkptTime time.Time
	lastCkptErr  error
	ckptCount    int64
	deltaCount   int64
	snapshots    int
	// prevCkpt is the in-memory image of the newest on-disk checkpoint — the
	// base the next delta diffs against while writing, the base catch-ups
	// connect delta chains to while following; deltasSince counts deltas
	// written since the last full snapshot.
	prevCkpt    *snapshot.Checkpoint
	deltasSince int
	junkWarned  bool

	deepReplays atomic.Int64

	// met is nil when the engine config disables instrumentation.
	met *durableMetrics

	// Following mode (see follower.go). tailer is set for a handle
	// OpenFollower opened, promoted or not; following flips to false once,
	// in Promote, after Log is set. applied is the next sequence to request
	// from the WAL, frontier the durable frontier as of the last tail pass.
	tailer      *wal.Tailer
	beforePass  func()
	following   atomic.Bool
	applied     atomic.Int64
	frontier    atomic.Int64
	passes      atomic.Int64
	catchups    atomic.Int64
	incCatchups atomic.Int64

	// modeMu serializes Promote and Close, the two calls that stop and
	// start the background loop: the tail loop while following, the
	// checkpointer while writing.
	modeMu sync.Mutex
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// durableMetrics are the checkpointer's and deep replay's instruments.
type durableMetrics struct {
	capture    *obs.Histogram
	writeFull  *obs.Histogram
	writeDelta *obs.Histogram
	bytesFull  *obs.Histogram
	bytesDelta *obs.Histogram
	deepReplay *obs.Histogram
}

func newDurableMetrics(reg *obs.Registry) *durableMetrics {
	const (
		writeHelp = "Checkpoint persist latency: encode, write, fsync, atomic rename (kind = full snapshot or delta)."
		bytesHelp = "On-disk size of each written checkpoint file (kind = full snapshot or delta)."
	)
	return &durableMetrics{
		capture: reg.Histogram("terids_checkpoint_capture_seconds",
			"Barrier checkpoint capture: pipeline drain to the watermark plus in-memory state copy.", nil),
		writeFull:  reg.Histogram("terids_checkpoint_write_seconds", writeHelp, obs.Labels{"kind": "full"}),
		writeDelta: reg.Histogram("terids_checkpoint_write_seconds", writeHelp, obs.Labels{"kind": "delta"}),
		bytesFull:  reg.SizeHistogram("terids_checkpoint_bytes", bytesHelp, obs.Labels{"kind": "full"}),
		bytesDelta: reg.SizeHistogram("terids_checkpoint_bytes", bytesHelp, obs.Labels{"kind": "delta"}),
		deepReplay: reg.Histogram("terids_deep_replay_seconds",
			"Deep-replay regeneration: restore the best base checkpoint and re-run the WAL range through a throwaway engine.", nil),
	}
}

// DurabilityStats is the /stats health block for the durability subsystem.
type DurabilityStats struct {
	WAL wal.Stats `json:"wal"`
	// RecoveredFrom is the snapshot file this process booted from (empty for
	// a cold start); Replayed counts the WAL arrivals re-run on boot.
	RecoveredFrom string `json:"recovered_from,omitempty"`
	Replayed      int64  `json:"replayed"`
	// ReplayLag is how many durable arrivals the merged output still trails
	// by — the work a crash right now would replay beyond the WAL's tail.
	ReplayLag int64 `json:"replay_lag"`
	// Checkpointer health. Checkpoints counts every checkpoint taken;
	// DeltaCheckpoints the subset written as v3 deltas. SnapshotsRetained
	// counts retained checkpoint files (chain bases included).
	Checkpoints              int64   `json:"checkpoints"`
	DeltaCheckpoints         int64   `json:"delta_checkpoints"`
	SnapshotsRetained        int     `json:"snapshots_retained"`
	LastCheckpointSeq        int64   `json:"last_checkpoint_seq"`
	LastCheckpointPath       string  `json:"last_checkpoint_path,omitempty"`
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"` // -1: never
	LastCheckpointError      string  `json:"last_checkpoint_error,omitempty"`
	// ReplayReach is the oldest sequence deep replay can regenerate results
	// from (checkpoint + retained WAL coverage); -1 when deep replay has no
	// coverage at all. DeepReplays counts completed deep replays.
	ReplayReach int64 `json:"replay_reach"`
	DeepReplays int64 `json:"deep_replays"`
}

// CheckpointDir returns the snapshot directory under a durability root.
func CheckpointDir(dir string) string { return filepath.Join(dir, checkpointSubdir) }

// listCheckpointFiles returns the parsed checkpoint files in a checkpoint
// directory, newest first (ties prefer the full snapshot), plus the names of
// entries that are not checkpoint files at all — callers skip those instead
// of letting one stray file abort pruning or recovery.
func listCheckpointFiles(ckptDir string) (files []ckptFile, skipped []string, err error) {
	des, err := os.ReadDir(ckptDir)
	if err != nil {
		return nil, nil, err
	}
	for _, de := range des {
		if de.IsDir() {
			skipped = append(skipped, de.Name())
			continue
		}
		f, ok := parseCkptFileName(de.Name())
		if !ok {
			skipped = append(skipped, de.Name())
			continue
		}
		files = append(files, f)
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].seq != files[j].seq {
			return files[i].seq > files[j].seq
		}
		return files[i].base < files[j].base // full (-1) before delta
	})
	return files, skipped, nil
}

// indexBySeq maps each checkpoint state watermark to its file, preferring a
// full snapshot when both shapes exist at the same watermark.
func indexBySeq(files []ckptFile) map[int64]ckptFile {
	m := make(map[int64]ckptFile, len(files))
	for _, f := range files {
		if old, ok := m[f.seq]; !ok || (old.base >= 0 && f.base < 0) {
			m[f.seq] = f
		}
	}
	return m
}

// materializeCheckpoint loads the full checkpoint state a file represents:
// a full snapshot reads directly; a delta resolves its base chain (deltas on
// deltas, terminating at a full snapshot) and applies the diffs forward. When
// the chain reaches the watermark of mem — a state the caller already holds
// in memory — it resumes from mem instead of reading any further down, and
// incremental reports that.
func materializeCheckpoint(ckptDir string, bySeq map[int64]ckptFile, f ckptFile, mem *snapshot.Checkpoint, depth int) (c *snapshot.Checkpoint, incremental bool, err error) {
	if depth > maxChainDepth {
		return nil, false, fmt.Errorf("engine: delta chain for %s deeper than %d", f.name, maxChainDepth)
	}
	path := filepath.Join(ckptDir, f.name)
	if f.base < 0 {
		c, err = snapshot.ReadFile(path)
		return c, false, err
	}
	dl, err := snapshot.ReadDeltaFile(path)
	if err != nil {
		return nil, false, err
	}
	if dl.Seq != f.seq || dl.BaseSeq != f.base {
		return nil, false, fmt.Errorf("engine: delta %s spans %d→%d, filename says %d→%d",
			f.name, dl.BaseSeq, dl.Seq, f.base, f.seq)
	}
	base, incremental := mem, true
	if mem == nil || mem.Seq != f.base {
		bf, ok := bySeq[f.base]
		if !ok || bf.seq >= f.seq {
			return nil, false, fmt.Errorf("engine: delta %s: base checkpoint at seq %d missing", f.name, f.base)
		}
		if base, incremental, err = materializeCheckpoint(ckptDir, bySeq, bf, mem, depth+1); err != nil {
			return nil, false, err
		}
	}
	c, err = snapshot.ApplyDelta(base, dl)
	return c, incremental, err
}

// newestCheckpoint loads the newest readable checkpoint state in ckptDir
// whose watermark lies in [lo, hi] and returns it with its file's path,
// materializing delta chains (from mem where they connect to it; see
// materializeCheckpoint). Corrupt or unreadable states are reported to skip,
// when set, and the next older one is tried — it still recovers, at the cost
// of more WAL replay. A nil checkpoint with nil error means no state
// qualified; a directory that does not exist yet holds none. The bool is
// materializeCheckpoint's incremental.
func newestCheckpoint(ckptDir string, lo, hi int64, mem *snapshot.Checkpoint, skip func(ckptFile, error)) (string, *snapshot.Checkpoint, bool, error) {
	files, _, err := listCheckpointFiles(ckptDir)
	if err != nil && !os.IsNotExist(err) {
		return "", nil, false, err
	}
	bySeq := indexBySeq(files)
	for _, f := range files { // newest first
		if f.seq > hi {
			continue
		}
		if f.seq < lo {
			break
		}
		c, incremental, err := materializeCheckpoint(ckptDir, bySeq, f, mem, 0)
		if err == nil {
			return filepath.Join(ckptDir, f.name), c, incremental, nil
		}
		if skip != nil {
			skip(f, err)
		}
	}
	return "", nil, false, nil
}

// LatestCheckpoint finds and loads the newest readable checkpoint state
// under a durability root. A root with no usable snapshot returns
// ("", nil, nil) — recovery then replays the WAL from zero.
func LatestCheckpoint(dir string) (string, *snapshot.Checkpoint, error) {
	path, c, _, err := newestCheckpoint(CheckpointDir(dir), 0, math.MaxInt64, nil, nil)
	return path, c, err
}

// replayBatch sizes the SubmitBatch calls of a WAL replay that runs to the
// end of the log (boot recovery, follower passes): large enough to amortize
// the per-submission overhead, which is what makes recovery fast.
const replayBatch = 256

// walReader is the read side of a WAL — Log.Replay, or a Tailer pass: stream
// every durable entry at or past from, in order, to fn.
type walReader func(from int64, fn func(wal.Entry) error) error

// replay is the one WAL → pipeline loop, behind boot recovery, deep replay,
// follower tail passes, and the promotion remainder: it turns the entries
// read delivers from sequence from on back into arrival records and hands
// them to submit in batches of n. The returned cursor only advances past
// entries whose batch submit accepted, so after an error a retry from it
// re-reads exactly the unsubmitted suffix.
func replay(schema *tuple.Schema, read walReader, from int64, n int, submit func([]*tuple.Record) error) (next int64, err error) {
	next, last := from, from
	var batch []*tuple.Record // grown on demand: an idle tail pass allocates nothing
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := submit(batch)
		batch = batch[:0]
		if err == nil {
			next = last
		}
		return err
	}
	err = read(from, func(e wal.Entry) error {
		rec, err := core.ArrivalRecord(schema, e.RID, e.Stream, e.TupleSeq, e.EntityID, e.Values)
		if err != nil {
			return err
		}
		batch = append(batch, rec)
		last = e.Seq + 1
		if len(batch) < n {
			return nil
		}
		return flush()
	})
	if err == nil {
		err = flush()
	}
	return next, err
}

// bootCheckpoint is the checkpoint a handle boots from: the caller's
// pre-loaded one, or the newest readable one on disk.
func bootCheckpoint(d DurableConfig) (string, *snapshot.Checkpoint, error) {
	if d.Checkpoint != nil {
		return d.CheckpointPath, d.Checkpoint, nil
	}
	return LatestCheckpoint(d.Dir)
}

// OpenDurable boots a durable engine from a durability directory: restore
// the newest snapshot (if any), open the WAL, replay every logged arrival
// past the snapshot watermark through the normal pipeline, attach the WAL to
// the live submission path, and start the background checkpointer. The
// returned engine is at exactly the state an uninterrupted run would hold
// after the last durable arrival.
func OpenDurable(sh *core.Shared, cfg Config, d DurableConfig) (*Durable, error) {
	d.fill()
	if err := os.MkdirAll(CheckpointDir(d.Dir), 0o755); err != nil {
		return nil, err
	}
	path, ckpt, err := bootCheckpoint(d)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(d.Dir, wal.Options{
		SegmentBytes: d.SegmentBytes, QueueDepth: d.QueueDepth, NoSync: d.NoSync,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Durable, error) {
		log.Close()
		return nil, err
	}

	watermark := int64(0)
	if ckpt != nil {
		watermark = ckpt.Seq
	}
	if st := log.Stats(); st.NextSeq > st.FirstSeq {
		// Non-empty log: it must connect to the snapshot watermark on both
		// sides, or exact replay is impossible.
		if st.FirstSeq > watermark {
			return fail(fmt.Errorf("engine: wal starts at seq %d, snapshot watermark is %d: arrivals in between are lost", st.FirstSeq, watermark))
		}
		if st.NextSeq < watermark {
			return fail(fmt.Errorf("engine: wal ends at seq %d before snapshot watermark %d: the log is stale", st.NextSeq, watermark))
		}
	}

	engCfg := cfg // pre-WAL copy: deep replay builds throwaway engines from it
	cfg.WAL = log
	eng, err := NewFromSnapshot(sh, cfg, ckpt)
	if err != nil {
		return fail(err)
	}
	// Replay the durable suffix through the normal pipeline. The WAL appends
	// these sequences idempotently (they are already durable), so SubmitBatch
	// behaves exactly as it did the first time.
	next, err := replay(sh.Schema, log.Replay, watermark, replayBatch, eng.SubmitBatch)
	if err != nil {
		eng.Close()
		return fail(fmt.Errorf("engine: wal replay: %w", err))
	}
	dur := newDurable(sh, engCfg, d, eng, path, ckpt)
	dur.Log, dur.replayed = log, next-watermark
	dur.startLoop()
	return dur, nil
}

// newDurable wraps an engine booted from checkpoint ckpt (read from path;
// nil and empty for a cold start) in its durability handle — the one
// constructor behind OpenDurable and OpenFollower. The checkpointer treats
// ckpt as the newest state on disk.
func newDurable(sh *core.Shared, engCfg Config, d DurableConfig, eng *Engine, path string, ckpt *snapshot.Checkpoint) *Durable {
	dur := &Durable{
		Eng: eng, cfg: d,
		sh: sh, engCfg: engCfg,
		recoveredFrom: path, restored: ckpt,
		resumeSeq:   eng.seq.Load(),
		lastCkptSeq: -1, lastCkptPath: path,
	}
	if ckpt != nil {
		dur.lastCkptSeq = ckpt.Seq
	}
	if !engCfg.ObsOff {
		dur.met = newDurableMetrics(engCfg.registry())
	}
	if files, _, err := listCheckpointFiles(CheckpointDir(d.Dir)); err == nil {
		dur.snapshots = len(files)
	}
	return dur
}

// startLoop starts the handle's one background loop for its mode until
// stopLoop: a tail pass every followPoll while following, a checkpoint
// every CheckpointInterval (when set) while writing. The caller owns the
// mode: it holds modeMu, or the handle is not shared yet.
func (d *Durable) startLoop() {
	period, step := followPoll, d.tailPass
	if !d.following.Load() {
		period, step = d.cfg.CheckpointInterval, func() {
			if _, err := d.CheckpointNow(); err != nil {
				d.cfg.Logf("background checkpoint: %v", err)
			}
		}
	}
	if period <= 0 {
		return
	}
	stop := make(chan struct{})
	d.stop = stop
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				step()
			case <-stop:
				return
			}
		}
	}()
}

// stopLoop stops the background loop, if one runs, and waits for it.
func (d *Durable) stopLoop() {
	if d.stop != nil {
		close(d.stop)
		d.stop = nil
	}
	d.wg.Wait()
}

// ResumeSeq is the first sequence number the recovered engine will assign to
// a new arrival — the snapshot watermark plus the replayed WAL suffix.
func (d *Durable) ResumeSeq() int64 { return d.resumeSeq }

// Replayed is the number of WAL arrivals re-run on boot.
func (d *Durable) Replayed() int64 { return d.replayed }

// RestoredCheckpoint returns the snapshot recovery booted from (nil for a
// cold start).
func (d *Durable) RestoredCheckpoint() *snapshot.Checkpoint { return d.restored }

// CheckpointNow takes a barrier checkpoint, writes it atomically into the
// checkpoint directory — as a v3 delta over the previous checkpoint when
// DeltaEvery allows it, as a full snapshot otherwise — prunes states beyond
// KeepCheckpoints, and truncates WAL segments older than the oldest retained
// base. A watermark that has not advanced since the last checkpoint is a
// no-op. A following handle refuses: it never writes under its directory.
func (d *Durable) CheckpointNow() (string, error) {
	if d.following.Load() {
		return "", errFollowing
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	captureStart := time.Now()
	c, err := d.Eng.Checkpoint()
	if err != nil {
		d.lastCkptErr = err
		return "", err
	}
	if m := d.met; m != nil {
		m.capture.ObserveSince(captureStart)
	}
	if c.Seq == d.lastCkptSeq {
		return d.lastCkptPath, nil
	}
	ckptDir := CheckpointDir(d.cfg.Dir)
	kind := "checkpoint"
	var path string
	wroteDelta := false
	// writeStart covers the whole persist: delta computation (the encode
	// cost deltas exist to amortize), file write, fsync, rename.
	writeStart := time.Now()
	if d.cfg.DeltaEvery > 0 && d.prevCkpt != nil && d.prevCkpt.Seq == d.lastCkptSeq &&
		d.deltasSince < d.cfg.DeltaEvery {
		dl, derr := snapshot.ComputeDelta(d.prevCkpt, c)
		if derr != nil {
			// Cannot happen between checkpoints of one engine; degrade to a
			// full snapshot rather than lose the checkpoint.
			d.cfg.Logf("delta checkpoint %d→%d: %v; writing a full snapshot", d.prevCkpt.Seq, c.Seq, derr)
		} else {
			path = filepath.Join(ckptDir, deltaName(c.Seq, d.prevCkpt.Seq))
			if err := snapshot.WriteDeltaFile(path, dl); err != nil {
				d.lastCkptErr = err
				return "", err
			}
			wroteDelta = true
			kind = "delta checkpoint"
		}
	}
	if !wroteDelta {
		path = filepath.Join(ckptDir, ckptName(c.Seq))
		if err := snapshot.WriteFile(path, c); err != nil {
			d.lastCkptErr = err
			return "", err
		}
		d.deltasSince = 0
	} else {
		d.deltasSince++
		d.deltaCount++
	}
	writeTook := time.Since(writeStart)
	var sizeBytes int64
	if fi, serr := os.Stat(path); serr == nil {
		sizeBytes = fi.Size()
	}
	if m := d.met; m != nil {
		wh, bh := m.writeFull, m.bytesFull
		if wroteDelta {
			wh, bh = m.writeDelta, m.bytesDelta
		}
		wh.ObserveDuration(writeTook)
		if sizeBytes > 0 {
			bh.Observe(sizeBytes)
		}
	}
	ckKind := "full"
	if wroteDelta {
		ckKind = "delta"
	}
	d.Eng.jr.Record("checkpoint", "checkpoint persisted",
		map[string]any{
			"kind": ckKind, "seq": c.Seq, "bytes": sizeBytes,
			"duration_ms": float64(writeTook.Microseconds()) / 1000, "path": path,
		})
	// prevCkpt pins the full materialized state in memory as the next
	// delta's base — only worth the footprint when deltas are enabled.
	if d.cfg.DeltaEvery > 0 {
		d.prevCkpt = c
	}
	d.lastCkptSeq = c.Seq
	d.lastCkptPath = path
	d.lastCkptTime = time.Now()
	d.lastCkptErr = nil
	d.ckptCount++
	d.cfg.Logf("%s %s (watermark %d, %d residents, %d live pairs)",
		kind, path, c.Seq, len(c.Residents), len(c.Pairs))
	if err := d.prune(c.Seq); err != nil {
		d.lastCkptErr = err
		return path, err
	}
	return path, nil
}

// prune removes checkpoint files beyond the newest KeepCheckpoints states —
// keeping every file a retained delta's base chain still references — then
// truncates the WAL to the oldest base still needed. Every retained file is
// a potential fallback recovery state (if the newest ever turns out
// unreadable, LatestCheckpoint falls back), so the WAL keeps the suffix of
// the oldest one; that same coverage is what deep replay regenerates
// historical /results from. Non-checkpoint files in the directory are
// skipped (logged once), and a failed removal does not abort the rest of the
// prune or the WAL truncation behind it.
func (d *Durable) prune(newest int64) error {
	ckptDir := CheckpointDir(d.cfg.Dir)
	files, skipped, err := listCheckpointFiles(ckptDir)
	if err != nil {
		return err
	}
	if len(skipped) > 0 && !d.junkWarned {
		d.junkWarned = true
		d.cfg.Logf("checkpoint dir: ignoring %d non-checkpoint entrie(s) (e.g. %s)", len(skipped), skipped[0])
	}
	bySeq := indexBySeq(files)
	need := make(map[string]bool)
	oldest := newest
	var mark func(f ckptFile, depth int)
	mark = func(f ckptFile, depth int) {
		if depth > maxChainDepth || need[f.name] {
			return
		}
		need[f.name] = true
		if f.seq < oldest {
			oldest = f.seq
		}
		if f.base >= 0 {
			if bf, ok := bySeq[f.base]; ok && bf.seq < f.seq {
				mark(bf, depth+1)
			} else {
				d.cfg.Logf("checkpoint %s: base at seq %d missing, chain unrecoverable", f.name, f.base)
			}
		}
	}
	for i := 0; i < len(files) && i < d.cfg.KeepCheckpoints; i++ {
		mark(files[i], 0)
	}
	var errs []error
	for _, f := range files {
		if need[f.name] {
			continue
		}
		if err := os.Remove(filepath.Join(ckptDir, f.name)); err != nil {
			errs = append(errs, err)
		}
	}
	d.snapshots = len(need)
	if err := d.Log.TruncateBefore(oldest); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Stats reports WAL and checkpointer health for /stats. While following,
// the WAL block is empty and the replay lag is the follower's.
func (d *Durable) Stats() DurabilityStats {
	st := DurabilityStats{
		RecoveredFrom: d.recoveredFrom,
		Replayed:      d.replayed,
		DeepReplays:   d.deepReplays.Load(),
		ReplayReach:   -1,
	}
	if reach, ok := d.DeepReach(); ok {
		st.ReplayReach = reach
	}
	frontier := d.frontier.Load()
	if !d.following.Load() {
		st.WAL = d.Log.Stats()
		frontier = st.WAL.DurableSeq
	}
	if lag := frontier - d.Eng.Completed(); lag > 0 {
		st.ReplayLag = lag
	}
	d.ckptMu.Lock()
	st.Checkpoints = d.ckptCount
	st.DeltaCheckpoints = d.deltaCount
	st.SnapshotsRetained = d.snapshots
	st.LastCheckpointSeq = d.lastCkptSeq
	st.LastCheckpointPath = d.lastCkptPath
	st.LastCheckpointAgeSeconds = -1
	if !d.lastCkptTime.IsZero() {
		st.LastCheckpointAgeSeconds = time.Since(d.lastCkptTime).Seconds()
	}
	if d.lastCkptErr != nil {
		st.LastCheckpointError = d.lastCkptErr.Error()
	}
	d.ckptMu.Unlock()
	return st
}

// Close stops the background loop and drains and closes the engine. While
// writing it then optionally writes one final checkpoint (so a clean
// restart replays nothing) and closes the WAL; a following handle leaves
// its directory untouched even when asked for the final checkpoint.
func (d *Durable) Close(finalCheckpoint bool) error {
	d.modeMu.Lock()
	defer d.modeMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.stopLoop()
	errEng := d.Eng.Close()
	if d.following.Load() {
		return errEng
	}
	var errCkpt error
	if finalCheckpoint && errEng == nil {
		// A drained, closed engine stays checkpointable; this captures the
		// complete final state.
		if _, err := d.CheckpointNow(); err != nil {
			errCkpt = fmt.Errorf("final checkpoint: %w", err)
		}
	}
	errLog := d.Log.Close()
	return errors.Join(errEng, errCkpt, errLog)
}
