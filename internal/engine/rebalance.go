// Adaptive shard rebalancing: real streams are topic-skewed (the Zipfian
// case of the TER experiments), so a static topic-hash partitioning slowly
// concentrates residents — and therefore resolution work — on a few shards,
// eroding the K-way speedup the engine exists to deliver. The rebalancer
// watches per-shard ER-time — where resolution CPU actually goes — with
// resident counts as fallback, and when the imbalance
// ratio stays over a configured threshold for a sustained window it performs
// an online rebalance: barrier-checkpoint at the current watermark, rebuild
// the router/window/shard state under a new Layout (a weighted topic-slot →
// shard table, and optionally a new K), and resume — in place, on the same
// *Engine, with zero lost or duplicated results. The WAL, the background
// checkpointer, and every OnResult subscriber stay attached throughout;
// checkpoints taken after a rebalance carry the layout (snapshot format v2)
// so crash recovery resumes balanced.
//
// Correctness is inherited, not re-proven: residency is pure load placement
// (resolution broadcasts to all shards), so any layout emits byte-identical
// pairs, and the rebalance itself is checkpoint + restore — the exact path
// the K→K' reshard property tests already pin down.
package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// LayoutSlots is the size of the topic-hash slot table. 256 slots gives the
// balancer fine-grained movable units while keeping the table a few hundred
// bytes in every checkpoint.
const LayoutSlots = 256

// maxAdoptShards bounds the shard count an auto-sizing restore (Shards == 0)
// will adopt from a checkpoint. Checkpoints are CRC-checked, not
// authenticated: a tampered Shards field must not be able to make recovery
// spawn an arbitrary number of goroutines and grids. Mirrors
// cliutil.MaxShards, the cap every flag path enforces.
const maxAdoptShards = 64

// Layout is a shard placement policy: K grid partitions and the slot table
// assigning each topic-hash slot to one of them.
type Layout struct {
	// K is the shard count.
	K int
	// Slots maps hash slot → owning shard, length LayoutSlots. Nil means
	// the default modulo assignment.
	Slots []int
}

// DefaultLayout is the uniform modulo assignment of slots to k shards.
func DefaultLayout(k int) Layout {
	l := Layout{K: k, Slots: make([]int, LayoutSlots)}
	for i := range l.Slots {
		l.Slots[i] = i % k
	}
	return l
}

// normalized validates the layout and fills a nil slot table with the
// default assignment.
func (l Layout) normalized() (Layout, error) {
	if l.K < 1 {
		return Layout{}, fmt.Errorf("engine: layout shard count %d, need >= 1", l.K)
	}
	if l.Slots == nil {
		return DefaultLayout(l.K), nil
	}
	if len(l.Slots) != LayoutSlots {
		return Layout{}, fmt.Errorf("engine: layout slot table has %d entries, need %d", len(l.Slots), LayoutSlots)
	}
	for s, sh := range l.Slots {
		if sh < 0 || sh >= l.K {
			return Layout{}, fmt.Errorf("engine: layout slot %d assigned to shard %d of %d", s, sh, l.K)
		}
	}
	return Layout{K: l.K, Slots: slices.Clone(l.Slots)}, nil
}

// RebalanceConfig tunes the background skew monitor. The zero value disables
// it; manual Rebalance calls work either way.
type RebalanceConfig struct {
	// Threshold arms a rebalance when the imbalance ratio — the most loaded
	// shard's residents over the per-shard mean — reaches it. Must be >= 1
	// to mean anything; 0 disables the monitor.
	Threshold float64
	// Interval is the monitor's sampling period. Required when Threshold is
	// set.
	Interval time.Duration
	// Sustain is how many consecutive over-threshold samples must be seen
	// before firing, so a transient burst does not trigger a barrier.
	// Default: 2.
	Sustain int
	// MinGain bounds thrash: an automatic rebalance only fires if the
	// projected imbalance under the candidate layout is at most MinGain ×
	// the current one (a single hot slot cannot be split, so sometimes no
	// layout helps). Default: 0.9.
	MinGain float64
	// Logf, when set, receives rebalance progress and errors.
	Logf func(format string, args ...any)
}

func (rc *RebalanceConfig) fill() {
	if rc.Sustain <= 0 {
		rc.Sustain = 2
	}
	if rc.MinGain <= 0 || rc.MinGain >= 1 {
		rc.MinGain = 0.9
	}
	if rc.Logf == nil {
		rc.Logf = func(string, ...any) {}
	}
}

// RebalanceStats is the rebalancer's health block, surfaced through
// Engine.Stats and /stats.
type RebalanceStats struct {
	// Enabled reports whether the background skew monitor is running;
	// Threshold is its trigger ratio.
	Enabled   bool    `json:"enabled"`
	Threshold float64 `json:"threshold,omitempty"`
	// Rebalances counts completed rebalances (manual + automatic);
	// AutoRebalances the monitor-fired subset. Skipped counts monitor
	// triggers suppressed because no layout would meaningfully improve the
	// imbalance (e.g. one hot slot).
	Rebalances     int64 `json:"rebalances"`
	AutoRebalances int64 `json:"auto_rebalances"`
	Skipped        int64 `json:"skipped"`
	// LastSeq is the watermark of the newest rebalance; LastImbalance the
	// imbalance ratio that preceded it; LastDurationMS its barrier→resume
	// latency.
	LastSeq        int64   `json:"last_seq"`
	LastImbalance  float64 `json:"last_imbalance"`
	LastDurationMS float64 `json:"last_duration_ms"`
	// LastTrigger names what fired the newest rebalance: "manual",
	// "residents" (resident-count fallback), or "er_time" (the per-shard
	// resolve-time signal).
	LastTrigger string `json:"last_trigger,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// rebTrigger identifies what initiated a rebalance — and, for automatic
// ones, which load signal armed it (the re-validation under the submission
// lock depends on whether the signal can be re-derived there).
type rebTrigger int

const (
	trigManual rebTrigger = iota
	// trigResidents is the monitor firing on the resident-count imbalance —
	// the fallback signal when ER-time deltas are unusable (first sample,
	// post-rebalance reset, or an idle interval).
	trigResidents
	// trigERTime is the monitor firing on per-shard ER-time deltas, the
	// primary signal: where resolution CPU actually went last interval.
	trigERTime
)

func (t rebTrigger) String() string {
	switch t {
	case trigResidents:
		return "residents"
	case trigERTime:
		return "er_time"
	default:
		return "manual"
	}
}

// rebState is the rebalancer's mutable bookkeeping, under its own lock so
// Stats() never queues behind a running rebalance.
type rebState struct {
	mu       sync.Mutex
	count    int64
	auto     int64
	skipped  int64
	lastSeq  int64
	lastImb  float64
	lastTook time.Duration
	lastTrig rebTrigger
	lastErr  error
}

// Imbalance is the current skew ratio: the most loaded shard's residents
// over the per-shard mean (1 = perfectly balanced, K = everything on one
// shard). An empty engine reports 1.
func (e *Engine) Imbalance() float64 {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return imbalanceOf(e.shards)
}

func imbalanceOf(shards []*shard) float64 {
	var max, total int64
	for _, s := range shards {
		r := s.residents.Load()
		total += r
		if r > max {
			max = r
		}
	}
	if total == 0 || len(shards) == 0 {
		return 1
	}
	return float64(max) * float64(len(shards)) / float64(total)
}

// BalancedLayout computes a weighted layout over k shards from the observed
// per-slot resident counts: slots are placed greedily, heaviest first, onto
// the least-loaded shard (LPT scheduling), so hot topics end up isolated and
// the cold bulk fills in around them. k <= 0 keeps the current shard count.
// The result is deterministic for a given weight vector.
func (e *Engine) BalancedLayout(k int) Layout {
	e.stateMu.RLock()
	if k <= 0 {
		k = e.cfg.Shards
	}
	e.stateMu.RUnlock()
	weights := make([]int64, LayoutSlots)
	for i := range weights {
		weights[i] = e.slotWeight[i].Load()
	}
	return Layout{K: k, Slots: balancedSlots(weights, k)}
}

// balancedSlots is the deterministic LPT assignment of weighted slots to k
// shards. Zero-weight slots carry no residents to move, but future topics
// will hash into them, so they are spread round-robin instead of all
// landing on the emptiest shard.
func balancedSlots(weights []int64, k int) []int {
	slots := make([]int, len(weights))
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]int64, k)
	rr := 0
	for _, s := range order {
		if weights[s] == 0 {
			slots[s] = rr % k
			rr++
			continue
		}
		best := 0
		for sh := 1; sh < k; sh++ {
			if load[sh] < load[best] {
				best = sh
			}
		}
		slots[s] = best
		load[best] += weights[s]
	}
	return slots
}

// projectedImbalance evaluates a candidate layout against the observed slot
// weights without touching any engine state.
func projectedImbalance(weights []int64, l Layout) float64 {
	load := make([]int64, l.K)
	var total, max int64
	for s, w := range weights {
		load[l.Slots[s]] += w
		total += w
	}
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(l.K) / float64(total)
}

// Rebalance performs an online layout change on the running engine: a swap
// (see snapshot.go) that re-installs the engine's own barrier checkpoint
// under l, which may change K — all without losing or duplicating a single
// result. Submissions block for the duration; the WAL, counters, and
// OnResult sink carry over. It must not be called from OnResult (like
// Checkpoint, it waits for the merger to drain).
func (e *Engine) Rebalance(l Layout) error {
	return e.rebalance(l, trigManual)
}

func (e *Engine) rebalance(l Layout, trig rebTrigger) (err error) {
	l, err = l.normalized()
	if err != nil {
		return err
	}
	//lint:ignore nodeterm pause-duration metric; never touches emitted bytes
	start := time.Now()
	// The operator-supplied Logf must not run inside the pause window
	// (locksend: callback invocation under subMu — a slow sink would extend
	// the pause, a sink calling back into the engine would deadlock).
	// Registered before the unlock defer, it fires after subMu is released.
	var logDone func()
	defer func() {
		if logDone != nil {
			logDone()
		}
	}()
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if trig != trigManual {
		// The candidate layout was computed before this lock. If a manual
		// rebalance won the race (different K now) or the skew already
		// resolved, applying the stale layout would revert the operator's
		// change — re-validate and stand down instead. An ER-time trigger
		// only re-checks K: its interval deltas cannot be re-derived here,
		// and the resident imbalance it deliberately overrides may well be
		// under threshold.
		stale := e.cfg.Shards != l.K
		if trig == trigResidents && imbalanceOf(e.shards) < e.cfg.Rebalance.Threshold {
			stale = true
		}
		if stale {
			e.reb.mu.Lock()
			e.reb.skipped++
			e.reb.mu.Unlock()
			e.jr.Record("rebalance_skipped", "automatic rebalance stood down (stale trigger)",
				map[string]any{"trigger": trig.String(), "k": l.K})
			return nil
		}
	}
	defer func() {
		e.reb.mu.Lock()
		e.reb.lastErr = err
		e.reb.mu.Unlock()
	}()
	imbBefore := imbalanceOf(e.shards)
	oldK := e.cfg.Shards
	e.jr.Record("rebalance_start", "online rebalance: barrier checkpoint and rebuild",
		map[string]any{"trigger": trig.String(), "k_from": oldK, "k_to": l.K, "imbalance": imbBefore})
	// The pause window: the engine's own state, captured at the barrier, is
	// re-installed under the new layout.
	c, err := e.swap(l, nil)
	if err != nil {
		return err
	}
	//lint:ignore nodeterm pause-duration metric; never touches emitted bytes
	took := time.Since(start)
	if m := e.met; m != nil {
		m.rebalancePause.ObserveDuration(took)
	}
	e.reb.mu.Lock()
	e.reb.count++
	if trig != trigManual {
		e.reb.auto++
	}
	e.reb.lastSeq = c.Seq
	e.reb.lastImb = imbBefore
	e.reb.lastTook = took
	e.reb.lastTrig = trig
	e.reb.mu.Unlock()
	e.jr.Record("rebalance_done", "online rebalance complete, pipeline resumed",
		map[string]any{
			"trigger": trig.String(), "k_from": oldK, "k_to": l.K,
			"seq": c.Seq, "residents": len(c.Residents),
			"imbalance": imbBefore, "duration_ms": float64(took.Microseconds()) / 1000,
		})
	logDone = func() {
		e.cfg.Rebalance.Logf("rebalance: K %d→%d at seq %d (%d residents, imbalance %.2f, trigger %s) in %v",
			oldK, l.K, c.Seq, len(c.Residents), imbBefore, trig, took.Round(time.Microsecond))
	}
	return nil
}

// Rebalancing reports whether an online rebalance is in its pause window
// (submissions locked out, pipeline torn down or rebuilding). Serving
// layers surface it through /readyz.
func (e *Engine) Rebalancing() bool { return e.rebalancing.Load() }

// startMonitor launches the skew monitor when the config enables it. Called
// once per engine (New / NewFromSnapshot), never by Rebalance.
func (e *Engine) startMonitor() {
	rc := &e.cfg.Rebalance
	rc.fill()
	if rc.Threshold <= 0 || rc.Interval <= 0 {
		return
	}
	if rc.Threshold < 1 {
		rc.Threshold = 1
	}
	e.monitorStop = make(chan struct{})
	e.monitorWG.Add(1)
	go e.monitor()
}

// erSample is the monitor's previous per-shard cumulative ER-time reading,
// the baseline its interval deltas are taken against.
type erSample struct {
	k  int
	er []int64
}

// loadImbalance is the skew monitor's load signal. The primary signal is
// per-shard ER-time: the interval delta of each shard's cumulative resolve
// nanoseconds since the previous sample, measuring where resolution CPU
// actually went (resident counts only approximate it — a shard hosting few
// but expensive residents is invisible to occupancy). Resident counts remain
// the fallback whenever the deltas are unusable: the first sample, a shard
// count change or post-rebalance counter reset (negative delta), or an idle
// interval (zero total). prev is updated to the current reading either way.
func (e *Engine) loadImbalance(prev *erSample) (float64, rebTrigger) {
	e.stateMu.RLock()
	k := e.cfg.Shards
	cur := make([]int64, k)
	for i, s := range e.shards {
		cur[i] = s.erTime.Load()
	}
	resident := imbalanceOf(e.shards)
	e.stateMu.RUnlock()

	usable := prev.k == k && len(prev.er) == k
	var maxD, sumD int64
	if usable {
		for i, v := range cur {
			d := v - prev.er[i]
			if d < 0 {
				usable = false
				break
			}
			sumD += d
			if d > maxD {
				maxD = d
			}
		}
	}
	prev.k, prev.er = k, cur
	if !usable || sumD == 0 {
		return resident, trigResidents
	}
	return float64(maxD) * float64(k) / float64(sumD), trigERTime
}

// monitor samples the load imbalance every Interval — per-shard ER-time
// deltas primarily, resident counts as fallback (see loadImbalance) — and
// fires an automatic rebalance after Sustain consecutive over-threshold
// samples, unless no candidate layout would improve matters, in which case
// the trigger is counted as skipped and the clock restarts.
func (e *Engine) monitor() {
	defer e.monitorWG.Done()
	rc := e.cfg.Rebalance
	tick := time.NewTicker(rc.Interval)
	defer tick.Stop()
	over := 0
	var prev erSample
	for {
		select {
		case <-e.monitorStop:
			return
		case <-e.ctx.Done():
			// Pipeline failure (or a failed rebalance that closed the
			// engine): no Close() will come to stop the monitor, so it must
			// notice the cancellation itself instead of ticking forever.
			return
		case <-tick.C:
		}
		imb, trig := e.loadImbalance(&prev)
		if imb < rc.Threshold {
			over = 0
			continue
		}
		if over++; over < rc.Sustain {
			continue
		}
		over = 0
		weights := make([]int64, LayoutSlots)
		for i := range weights {
			weights[i] = e.slotWeight[i].Load()
		}
		e.stateMu.RLock()
		k := e.cfg.Shards
		e.stateMu.RUnlock()
		cand := Layout{K: k, Slots: balancedSlots(weights, k)}
		if proj := projectedImbalance(weights, cand); proj > imb*rc.MinGain {
			e.reb.mu.Lock()
			e.reb.skipped++
			e.reb.mu.Unlock()
			e.jr.Record("rebalance_skipped", "no candidate layout improves the imbalance",
				map[string]any{"trigger": trig.String(), "imbalance": imb, "projected": proj})
			rc.Logf("rebalance: skipped at %s imbalance %.2f (best layout projects %.2f)", trig, imb, proj)
			continue
		}
		switch err := e.rebalance(cand, trig); err {
		case nil:
		case ErrClosed:
			return
		default:
			rc.Logf("rebalance: %v", err)
			if e.Err() != nil {
				return
			}
		}
	}
}

// RebalanceStats reports the rebalancer's counters.
func (e *Engine) RebalanceStats() RebalanceStats {
	e.reb.mu.Lock()
	defer e.reb.mu.Unlock()
	st := RebalanceStats{
		Enabled:        e.monitorStop != nil,
		Threshold:      e.cfg.Rebalance.Threshold,
		Rebalances:     e.reb.count,
		AutoRebalances: e.reb.auto,
		Skipped:        e.reb.skipped,
		LastSeq:        e.reb.lastSeq,
		LastImbalance:  e.reb.lastImb,
		LastDurationMS: float64(e.reb.lastTook.Microseconds()) / 1000,
	}
	if e.reb.count > 0 {
		st.LastTrigger = e.reb.lastTrig.String()
	}
	if e.reb.lastErr != nil {
		st.LastError = e.reb.lastErr.Error()
	}
	return st
}
