// The SLO engine turns raw instrument families into service-level
// verdicts. Objectives are declared as small text specs — a latency
// quantile bound over a histogram family, or an error ratio between two
// counter families — and evaluated continuously over sliding windows
// using the multi-window burn-rate method: a fast window (default 5m)
// catches sharp regressions quickly, a slow window (default 1h) catches
// slow burns without flapping on noise. Burn rate is the ratio of the
// observed bad fraction to the objective's error budget, so burn == 1
// means "spending budget exactly as fast as allowed" and burn == 10 means
// "the whole budget gone in a tenth of the window".
//
// Evaluation is snapshot-differencing: every tick the engine copies each
// objective's cumulative instrument state into a bounded ring; windowed
// statistics are the difference between the newest snapshot and the one
// closest to a window-width ago. That makes evaluation O(windows) memory
// per objective and entirely non-invasive — the hot path never knows SLOs
// exist. Verdicts surface in three places: GET /slo (JSON), terids_slo_*
// gauges in /metrics, and a journal event on every state transition.
//
// Spec grammar (one objective per spec):
//
//	latency:  <name>:<hist_family>[{k=v,...}]:p<QQ><<duration>
//	          e.g.  ingest-p99:terids_impute_seconds:p99<250ms
//	ratio:    <name>:<err_family>[{...}]/<total_family>[{...}]<<fraction>
//	          e.g.  errors:terids_rejected_total/terids_arrivals_total<0.01
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLOState is an objective's health verdict.
type SLOState int32

const (
	SLOOk SLOState = iota
	SLOWarn
	SLOBreach
)

func (s SLOState) String() string {
	switch s {
	case SLOWarn:
		return "warn"
	case SLOBreach:
		return "breach"
	default:
		return "ok"
	}
}

// sloKind separates the two objective shapes.
type sloKind int

const (
	sloLatency sloKind = iota
	sloRatio
)

// Objective is one parsed SLO declaration.
type Objective struct {
	// Name identifies the objective in /slo, gauges, and journal events.
	Name string
	// Spec is the original spec text, echoed back for operators.
	Spec string

	kind sloKind

	// Latency objectives: quantile of Family must stay below BoundRaw
	// (raw instrument units, nanoseconds for latency histograms).
	Family       string
	FamilyLabels Labels
	Quantile     float64
	BoundRaw     float64

	// Ratio objectives: ErrFamily/TotalFamily must stay below Max.
	ErrFamily   string
	ErrLabels   Labels
	TotalFamily string
	TotalLabels Labels
	Max         float64
}

// ParseSLO parses one objective spec (see the package grammar above).
func ParseSLO(spec string) (Objective, error) {
	obj := Objective{Spec: spec}
	lt := strings.LastIndexByte(spec, '<')
	if lt < 0 {
		return obj, fmt.Errorf("slo spec %q: missing '<bound'", spec)
	}
	lhs, bound := spec[:lt], spec[lt+1:]
	colon := strings.IndexByte(lhs, ':')
	if colon <= 0 {
		return obj, fmt.Errorf("slo spec %q: missing '<name>:' prefix", spec)
	}
	obj.Name = lhs[:colon]
	body := lhs[colon+1:]

	if slash := splitTopLevel(body, '/'); slash >= 0 {
		// Ratio: err_family/total_family < fraction.
		obj.kind = sloRatio
		var err error
		if obj.ErrFamily, obj.ErrLabels, err = parseFamily(body[:slash]); err != nil {
			return obj, fmt.Errorf("slo spec %q: %v", spec, err)
		}
		if obj.TotalFamily, obj.TotalLabels, err = parseFamily(body[slash+1:]); err != nil {
			return obj, fmt.Errorf("slo spec %q: %v", spec, err)
		}
		obj.Max, err = strconv.ParseFloat(bound, 64)
		if err != nil || obj.Max <= 0 || obj.Max >= 1 {
			return obj, fmt.Errorf("slo spec %q: ratio bound must be a fraction in (0,1), got %q", spec, bound)
		}
		return obj, nil
	}

	// Latency: family:pQQ < duration.
	obj.kind = sloLatency
	qcolon := splitTopLevel(body, ':')
	if qcolon < 0 {
		return obj, fmt.Errorf("slo spec %q: want '<family>:p<QQ>' or '<err>/<total>'", spec)
	}
	var err error
	if obj.Family, obj.FamilyLabels, err = parseFamily(body[:qcolon]); err != nil {
		return obj, fmt.Errorf("slo spec %q: %v", spec, err)
	}
	qs := body[qcolon+1:]
	if !strings.HasPrefix(qs, "p") || len(qs) < 2 {
		return obj, fmt.Errorf("slo spec %q: quantile must look like p50/p99/p999, got %q", spec, qs)
	}
	q, err := strconv.ParseFloat("0."+qs[1:], 64)
	if err != nil || q <= 0 || q >= 1 {
		return obj, fmt.Errorf("slo spec %q: bad quantile %q", spec, qs)
	}
	obj.Quantile = q
	d, err := time.ParseDuration(bound)
	if err != nil || d <= 0 {
		return obj, fmt.Errorf("slo spec %q: bad latency bound %q (want a duration like 250ms)", spec, bound)
	}
	obj.BoundRaw = float64(d.Nanoseconds())
	return obj, nil
}

// splitTopLevel finds sep outside any {...} label selector and outside
// double-quoted label values, or -1.
func splitTopLevel(s string, sep byte) int {
	depth := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote {
			if c == '\\' {
				i++ // skip the escaped character
			} else if c == '"' {
				inQuote = false
			}
			continue
		}
		switch c {
		case '"':
			inQuote = true
		case '{':
			depth++
		case '}':
			depth--
		case sep:
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// parseFamily splits "family{k=v,k2=v2}" into name and labels. Values may
// be double-quoted, and a quoted value may contain commas, braces, and
// backslash-escaped quotes — the selector body is split only on commas
// that sit outside quotes, never blindly on every comma.
func parseFamily(s string) (string, Labels, error) {
	brace := strings.IndexByte(s, '{')
	if brace < 0 {
		if s == "" {
			return "", nil, fmt.Errorf("empty metric family")
		}
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("unclosed label selector in %q", s)
	}
	name := s[:brace]
	if name == "" {
		return "", nil, fmt.Errorf("empty metric family")
	}
	lbl := Labels{}
	for _, pair := range splitLabelPairs(s[brace+1 : len(s)-1]) {
		if pair == "" {
			continue
		}
		eq := strings.IndexByte(pair, '=')
		if eq <= 0 {
			return "", nil, fmt.Errorf("bad label pair %q", pair)
		}
		val, err := unquoteLabelValue(pair[eq+1:])
		if err != nil {
			return "", nil, fmt.Errorf("bad label pair %q: %v", pair, err)
		}
		lbl[pair[:eq]] = val
	}
	return name, lbl, nil
}

// splitLabelPairs splits a selector body on commas outside double quotes,
// so family{path="a,b"} stays one pair.
func splitLabelPairs(s string) []string {
	var out []string
	start := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// unquoteLabelValue strips the optional surrounding double quotes from a
// label value, resolving \" and \\ escapes inside a quoted value.
func unquoteLabelValue(v string) (string, error) {
	if len(v) == 0 || v[0] != '"' {
		if strings.ContainsRune(v, '"') {
			return "", fmt.Errorf("stray quote in value %q", v)
		}
		return v, nil
	}
	if len(v) < 2 || v[len(v)-1] != '"' {
		return "", fmt.Errorf("unterminated quote in value %q", v)
	}
	body := v[1 : len(v)-1]
	if !strings.ContainsRune(body, '\\') {
		return body, nil
	}
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' && i+1 < len(body) {
			i++
		}
		b.WriteByte(body[i])
	}
	return b.String(), nil
}

// ParseSLOFile parses one spec per line; blank lines and #-comments are
// skipped.
func ParseSLOFile(content string) ([]Objective, error) {
	var out []Objective
	for i, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		obj, err := ParseSLO(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		out = append(out, obj)
	}
	return out, nil
}

// sloSample is one tick's snapshot of an objective's instruments.
type sloSample struct {
	t        time.Time
	resolved bool
	hist     HistSnapshot // latency objectives
	errs     int64        // ratio objectives
	total    int64
}

// sloTracker carries one objective's snapshot ring and current verdict.
type sloTracker struct {
	obj     Objective
	samples *Ring[sloSample]
	state   SLOState

	burnFast, burnSlow, stateG, currentG, budgetG *Gauge
}

// SLOStatus is one objective's verdict as served by GET /slo.
type SLOStatus struct {
	Objective string `json:"objective"`
	Spec      string `json:"spec"`
	Kind      string `json:"kind"`
	// Current is the windowed observation over the fast window: the
	// quantile in seconds for latency objectives, the ratio for ratio
	// objectives.
	Current float64 `json:"current"`
	// Bound is the objective's threshold in the same unit as Current.
	Bound           float64 `json:"bound"`
	BurnRateFast    float64 `json:"burn_rate_fast"`
	BurnRateSlow    float64 `json:"burn_rate_slow"`
	BudgetRemaining float64 `json:"budget_remaining"`
	State           string  `json:"state"`
	WindowFast      string  `json:"window_fast"`
	WindowSlow      string  `json:"window_slow"`
}

// SLOEngine periodically evaluates a set of objectives against a registry.
type SLOEngine struct {
	reg      *Registry
	journal  *Journal
	interval time.Duration
	fast     time.Duration
	slow     time.Duration

	mu       sync.Mutex
	trackers []*sloTracker

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewSLOEngine builds an engine evaluating objectives every interval over
// fast/slow burn windows. Gauges register into reg immediately; nothing
// evaluates until Run or Tick.
func NewSLOEngine(reg *Registry, journal *Journal, objectives []Objective, interval, fast, slow time.Duration) *SLOEngine {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	if fast <= 0 {
		fast = 5 * time.Minute
	}
	if slow < fast {
		slow = 12 * fast
	}
	// Ring must cover the slow window at tick granularity, +1 so the
	// newest and the window-old snapshot coexist.
	ringCap := int(slow/interval) + 2
	e := &SLOEngine{
		reg:      reg,
		journal:  journal,
		interval: interval,
		fast:     fast,
		slow:     slow,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, obj := range objectives {
		lbl := Labels{"slo": obj.Name}
		t := &sloTracker{
			obj:      obj,
			samples:  NewRing[sloSample](ringCap, 0),
			burnFast: reg.Gauge("terids_slo_burn_rate", "SLO error-budget burn rate per window.", Labels{"slo": obj.Name, "window": "fast"}),
			burnSlow: reg.Gauge("terids_slo_burn_rate", "SLO error-budget burn rate per window.", Labels{"slo": obj.Name, "window": "slow"}),
			stateG:   reg.Gauge("terids_slo_state", "SLO state: 0 ok, 1 warn, 2 breach.", lbl),
			currentG: reg.Gauge("terids_slo_current", "Windowed SLO observation (seconds or ratio).", lbl),
			budgetG:  reg.Gauge("terids_slo_budget_remaining", "Fraction of the slow-window error budget left.", lbl),
		}
		t.budgetG.Set(1)
		e.trackers = append(e.trackers, t)
	}
	return e
}

// Objectives returns the engine's objective count.
func (e *SLOEngine) Objectives() int { return len(e.trackers) }

// Run evaluates on the engine's interval until Stop.
func (e *SLOEngine) Run() {
	go func() {
		defer close(e.done)
		tick := time.NewTicker(e.interval)
		defer tick.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-tick.C:
				e.Tick(time.Now())
			}
		}
	}()
}

// Stop halts the evaluation loop (idempotent).
func (e *SLOEngine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// Tick takes one snapshot per objective at time now and re-evaluates
// verdicts. Exported so tests drive evaluation deterministically.
func (e *SLOEngine) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.trackers {
		e.tickOne(t, now)
	}
}

func (e *SLOEngine) tickOne(t *sloTracker, now time.Time) {
	s := sloSample{t: now}
	switch t.obj.kind {
	case sloLatency:
		if h := e.reg.FindHistogram(t.obj.Family, t.obj.FamilyLabels); h != nil {
			s.hist = h.Snapshot()
			s.resolved = true
		}
	case sloRatio:
		errC := e.reg.FindCounter(t.obj.ErrFamily, t.obj.ErrLabels)
		totC := e.reg.FindCounter(t.obj.TotalFamily, t.obj.TotalLabels)
		if errC != nil || totC != nil {
			if errC != nil {
				s.errs = errC.Value()
			}
			if totC != nil {
				s.total = totC.Value()
			}
			s.resolved = true
		}
	}
	t.samples.Append(func(int64) sloSample { return s })
	samples, _ := t.samples.Since(0, math.MaxInt)

	current, burnFast := t.evalWindow(samples, now, e.fast)
	_, burnSlow := t.evalWindow(samples, now, e.slow)

	t.burnFast.Set(burnFast)
	t.burnSlow.Set(burnSlow)
	t.currentG.Set(current)
	budget := 1 - burnSlow
	if budget < 0 {
		budget = 0
	} else if budget > 1 {
		budget = 1
	}
	t.budgetG.Set(budget)

	state := SLOOk
	switch {
	case burnFast >= 1:
		state = SLOBreach
	case burnSlow >= 1 || burnFast >= 0.5:
		state = SLOWarn
	}
	if state != t.state {
		from := t.state
		t.state = state
		t.stateG.Set(float64(state))
		e.journal.Record("slo_transition",
			fmt.Sprintf("slo %s: %s -> %s", t.obj.Name, from, state),
			map[string]any{
				"slo":       t.obj.Name,
				"from":      from.String(),
				"to":        state.String(),
				"burn_fast": burnFast,
				"burn_slow": burnSlow,
				"current":   current,
			})
	} else {
		t.stateG.Set(float64(state))
	}
}

// evalWindow computes (current observation, burn rate) over the trailing
// window ending at the newest of samples (oldest first). With fewer samples
// than the window spans, the oldest available sample is the baseline
// (partial window).
func (t *sloTracker) evalWindow(samples []sloSample, now time.Time, window time.Duration) (current, burn float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	newest := samples[len(samples)-1]
	if !newest.resolved {
		return 0, 0
	}
	// Baseline: the newest sample at least window old; else the oldest.
	cutoff := now.Add(-window)
	var base sloSample
	found := false
	for i := len(samples) - 1; i >= 0; i-- {
		s := samples[i]
		if !s.resolved {
			continue
		}
		if !found {
			base, found = s, true
		}
		if !s.t.After(cutoff) {
			base = s
			break
		}
		base = s
	}
	if !found || base.t.Equal(newest.t) {
		// Single sample: treat cumulative-since-start as the window.
		base = sloSample{resolved: true}
		base.hist.Scale = newest.hist.Scale
	}

	switch t.obj.kind {
	case sloLatency:
		win := newest.hist.Sub(base.hist)
		if win.Count == 0 {
			return 0, 0
		}
		scale := win.Scale
		if scale == 0 {
			scale = 1
		}
		current = win.Quantile(t.obj.Quantile) / scale
		bad := win.FractionAbove(t.obj.BoundRaw)
		budget := 1 - t.obj.Quantile
		if budget <= 0 {
			budget = math.SmallestNonzeroFloat64
		}
		return current, bad / budget
	case sloRatio:
		dErr := float64(newest.errs - base.errs)
		dTot := float64(newest.total - base.total)
		if dTot <= 0 {
			return 0, 0
		}
		ratio := dErr / dTot
		if ratio < 0 {
			ratio = 0
		}
		return ratio, ratio / t.obj.Max
	}
	return 0, 0
}

// Status reports every objective's verdict, sorted by name.
func (e *SLOEngine) Status() []SLOStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.trackers))
	for _, t := range e.trackers {
		st := SLOStatus{
			Objective:       t.obj.Name,
			Spec:            t.obj.Spec,
			BurnRateFast:    t.burnFast.Value(),
			BurnRateSlow:    t.burnSlow.Value(),
			BudgetRemaining: t.budgetG.Value(),
			Current:         t.currentG.Value(),
			State:           t.state.String(),
			WindowFast:      e.fast.String(),
			WindowSlow:      e.slow.String(),
		}
		switch t.obj.kind {
		case sloLatency:
			st.Kind = "latency"
			st.Bound = t.obj.BoundRaw / 1e9
		case sloRatio:
			st.Kind = "ratio"
			st.Bound = t.obj.Max
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}
