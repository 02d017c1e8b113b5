// Package obs is the engine's observability subsystem: lock-cheap runtime
// instruments — atomic counters, gauges, and log-bucketed latency
// histograms with quantile extraction — registered in a process-wide
// registry and exported in the Prometheus text exposition format.
//
// The package is dependency-free by design (standard library only): the
// instruments live on the per-arrival hot path, where a full metrics
// client's label hashing and interface indirection would cost more than the
// work being measured. Every instrument is a few atomics:
//
//   - Counter: one atomic.Int64.
//   - Gauge: one atomic float64 (bit-cast).
//   - Histogram: a fixed array of power-of-two buckets plus count and sum —
//     Observe is a bit-length computation and two atomic adds, no locks, no
//     allocation. Quantiles (p50/p95/p99) are extracted at read time by
//     scanning the cumulative bucket counts.
//
// Instruments are obtained with get-or-create semantics: asking the
// registry for an existing (name, labels) pair returns the same instrument,
// so independent subsystems (several engines, WALs, checkpointer instances
// in one process) publish into shared series exactly as a Prometheus client
// would. The exposition handler writes families sorted by name, buckets in
// ascending le order, which keeps the output deterministic and diffable.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets per histogram. Bucket i counts
// observations with value <= 1<<(histMinShift+i) (in the histogram's raw
// unit, nanoseconds for latencies); the last bucket is the overflow.
// 2^8 ns = 256ns up to 2^(8+30) ns ≈ 274s spans everything from a channel
// hop to a full checkpoint fsync.
const (
	histBuckets  = 31
	histMinShift = 8
)

// Labels is one metric's label set. Rendered sorted by key, so the same set
// always names the same series.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// instrument is anything the registry can expose.
type instrument interface {
	// labelStr is the rendered constant label set (may be empty).
	labelStr() string
	// sample appends the instrument's exposition lines for family name.
	sample(b *strings.Builder, name string)
}

// family groups all instruments sharing one metric name: same type, same
// help, different label sets.
type family struct {
	name  string
	help  string
	typ   string // counter | gauge | histogram
	insts []instrument
	byLbl map[string]instrument
}

// Registry holds a process's instruments. The zero value is not usable; use
// NewRegistry or the process-wide Default.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []func(*Emit)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every subsystem publishes into
// unless explicitly pointed elsewhere.
func Default() *Registry { return defaultRegistry }

// getOrCreate returns the instrument registered under (name, labels),
// creating it with mk when absent. A name registered under a different
// metric type is a programming error and panics.
func (r *Registry) getOrCreate(name, help, typ string, labels Labels, mk func(lbl string) instrument) instrument {
	lbl := labels.render()
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLbl: make(map[string]instrument)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if inst, ok := f.byLbl[lbl]; ok {
		return inst
	}
	inst := mk(lbl)
	f.byLbl[lbl] = inst
	f.insts = append(f.insts, inst)
	sort.Slice(f.insts, func(i, j int) bool { return f.insts[i].labelStr() < f.insts[j].labelStr() })
	return inst
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	lbl string
	v   atomic.Int64
}

// Inc adds one.
//
//terids:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
//
//terids:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) labelStr() string { return c.lbl }

func (c *Counter) sample(b *strings.Builder, name string) {
	writeSample(b, name, "", c.lbl, float64(c.v.Load()))
}

// Counter returns the counter registered under name (creating it when
// absent).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.getOrCreate(name, help, "counter", labels, func(lbl string) instrument {
		return &Counter{lbl: lbl}
	}).(*Counter)
}

// Gauge is an atomic float64 gauge.
type Gauge struct {
	lbl string
	v   atomic.Uint64 // float64 bits
}

// Set stores v.
//
//terids:hotpath
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Add adds d (CAS loop).
//
//terids:hotpath
func (g *Gauge) Add(d float64) {
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

func (g *Gauge) labelStr() string { return g.lbl }

func (g *Gauge) sample(b *strings.Builder, name string) {
	writeSample(b, name, "", g.lbl, g.Value())
}

// Gauge returns the gauge registered under name (creating it when absent).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.getOrCreate(name, help, "gauge", labels, func(lbl string) instrument {
		return &Gauge{lbl: lbl}
	}).(*Gauge)
}

// gaugeFunc is a read-time callback gauge.
type gaugeFunc struct {
	lbl string
	fn  func() float64
}

func (g *gaugeFunc) labelStr() string { return g.lbl }

func (g *gaugeFunc) sample(b *strings.Builder, name string) {
	writeSample(b, name, "", g.lbl, g.fn())
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	inst := r.getOrCreate(name, help, "gauge", labels, func(lbl string) instrument {
		return &gaugeFunc{lbl: lbl, fn: fn}
	})
	if gf, ok := inst.(*gaugeFunc); ok {
		gf.fn = fn
	}
}

// Histogram is a lock-free log2-bucketed histogram of non-negative int64
// observations (nanoseconds for latencies, bytes for sizes). scale divides
// raw values for exposition: 1e9 renders nanoseconds as seconds, 1 leaves
// counts/bytes as-is.
type Histogram struct {
	lbl     string
	scale   float64
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// bucketOf maps a raw value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1<<histMinShift {
		return 0
	}
	// Smallest i with v <= 1<<(histMinShift+i).
	i := bits.Len64(uint64(v)-1) - histMinShift
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBound is bucket i's inclusive upper bound in raw units; the last
// bucket is unbounded (+Inf).
func bucketBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << (histMinShift + i))
}

// Observe records one raw-unit value. Negative values clamp to zero.
//
//terids:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed nanoseconds since start.
//
//terids:hotpath
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// ObserveDuration records a duration in nanoseconds.
//
//terids:hotpath
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of raw observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile extracts quantile q in (0,1] from the bucket counts, linearly
// interpolated within the winning bucket, in raw units. Zero observations
// yield zero.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

func (h *Histogram) labelStr() string { return h.lbl }

func (h *Histogram) sample(b *strings.Builder, name string) {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if bound := bucketBound(i); !math.IsInf(bound, 1) {
			le = formatFloat(bound / h.scale)
		}
		lbl := fmt.Sprintf("le=%q", le)
		if h.lbl != "" {
			lbl = h.lbl + "," + lbl
		}
		writeSample(b, name, "_bucket", lbl, float64(cum))
	}
	// The last log2 bucket is the overflow, so cum == count and the +Inf
	// line above already closed the histogram.
	writeSample(b, name, "_sum", h.lbl, float64(h.sum.Load())/h.scale)
	writeSample(b, name, "_count", h.lbl, float64(h.count.Load()))
}

// quantiles every histogram additionally exports as a read-time gauge
// family (<name>_q{q="0.50"}), scaled like the histogram itself.
var quantiles = []struct {
	q    float64
	name string
}{{0.5, "0.50"}, {0.95, "0.95"}, {0.99, "0.99"}}

// Histogram returns the latency histogram registered under name (creating
// it when absent), rendering nanosecond observations as seconds.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.histogram(name, help, labels, 1e9)
}

// SizeHistogram returns a histogram of raw magnitudes (bytes, entries)
// exposed unscaled.
func (r *Registry) SizeHistogram(name, help string, labels Labels) *Histogram {
	return r.histogram(name, help, labels, 1)
}

func (r *Registry) histogram(name, help string, labels Labels, scale float64) *Histogram {
	return r.getOrCreate(name, help, "histogram", labels, func(lbl string) instrument {
		return &Histogram{lbl: lbl, scale: scale}
	}).(*Histogram)
}

// Emit buffers collector output during one exposition pass.
type Emit struct {
	lines map[string]*famOut
}

type famOut struct {
	help string
	typ  string
	out  []string
}

func (e *Emit) add(name, help, typ, lbl string, v float64) {
	f, ok := e.lines[name]
	if !ok {
		f = &famOut{help: help, typ: typ}
		e.lines[name] = f
	}
	var b strings.Builder
	writeSample(&b, name, "", lbl, v)
	f.out = append(f.out, b.String())
}

// Gauge emits one gauge sample from a collector.
func (e *Emit) Gauge(name, help string, labels Labels, v float64) {
	e.add(name, help, "gauge", labels.render(), v)
}

// Counter emits one counter sample from a collector.
func (e *Emit) Counter(name, help string, labels Labels, v float64) {
	e.add(name, help, "counter", labels.render(), v)
}

// Collect registers a scrape-time callback that can emit dynamic, labeled
// samples (per-shard series whose cardinality changes at runtime).
func (r *Registry) Collect(fn func(*Emit)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// writeSample renders one exposition line: name[suffix]{labels} value.
func writeSample(b *strings.Builder, name, suffix, lbl string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if lbl != "" {
		b.WriteByte('{')
		b.WriteString(lbl)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
