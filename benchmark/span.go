package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public API.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the recorder's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int32 `json:"parent"`
	// Arrival is the arrival this span worked for; the spans of one arrival
	// share it.
	Arrival int32 `json:"arrival"`
}

// recorder keeps spans in memory; nothing is written until the run ends.
// It is not safe for concurrent use: the traced passes are single-threaded,
// like the core.Processor they mirror.
type recorder struct {
	origin  time.Time
	spans   []span
	open    []int32
	arrival int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Arrival: r.arrival, Start: int64(time.Since(r.origin))})
}

// end closes the innermost open span.
func (r *recorder) end() {
	n := len(r.open) - 1
	r.spans[r.open[n]].End = int64(time.Since(r.origin))
	r.open = r.open[:n]
}

// layerTime is one span name's totals.
type layerTime struct {
	Calls int64 `json:"calls"`
	// TotalNs is the summed duration of the name's spans; SelfNs is that
	// minus the part their child spans cover.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus its direct children's durations; children of one parent
// never overlap here because every pass is single-threaded.
func selfTimes(spans []span) map[string]layerTime {
	out := make(map[string]layerTime)
	for _, s := range spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.TotalNs += d
		lt.SelfNs += d
		out[s.Name] = lt
		if s.Parent >= 0 {
			p := out[spans[s.Parent].Name]
			p.SelfNs -= d
			out[spans[s.Parent].Name] = p
		}
	}
	return out
}

// meanUs is a name's mean span duration in microseconds (0 with no calls).
func (lt layerTime) meanUs() float64 {
	if lt.Calls == 0 {
		return 0
	}
	return float64(lt.TotalNs) / float64(lt.Calls) / 1e3
}

// traceFile is what is written to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Layers are per-name totals over every arrival of each pass.
	PassA map[string]layerTime `json:"pass_a_layers"`
	PassB map[string]layerTime `json:"pass_b_layers"`
	// Spans are pass B's raw spans for the first traceFileArrivals
	// arrivals only: the full list runs to millions of entries.
	SpanArrivals int    `json:"span_arrivals"`
	Spans        []span `json:"spans"`
}

const traceFileArrivals = 500

// outDir is where a run leaves files for people, relative to the
// repository root it is run from; it is git-ignored.
var outDir = filepath.Join("benchmark", "out")

// writeTrace writes the trace file next to this package's sources when run
// from the repository root, creating out/ as needed.
func writeTrace(w workload, seed int64, a, b *recorder) (string, error) {
	tf := traceFile{
		Workload: w.Name, Seed: seed,
		PassA: selfTimes(a.spans), PassB: selfTimes(b.spans),
		SpanArrivals: traceFileArrivals,
	}
	// Arrivals are recorded in order, so the prefix ends at the first span
	// of arrival traceFileArrivals.
	cut := sort.Search(len(b.spans), func(i int) bool { return b.spans[i].Arrival >= traceFileArrivals })
	tf.Spans = b.spans[:cut]
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
