package obs

import (
	"bufio"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleLine matches one Prometheus text-exposition sample:
// name{labels} value  (labels optional).
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func TestExpositionParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_arrivals_total", "Arrivals.", nil).Add(42)
	r.Gauge("test_pending", "Pending.", nil).Set(3)
	r.GaugeFunc("test_uptime_seconds", "Uptime.", nil, func() float64 { return 1.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", Labels{"shard": "0"})
	h.Observe(int64(5 * time.Microsecond))
	h.Observe(int64(80 * time.Millisecond))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end in a newline")
	}

	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	var families []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			seenHelp[name] = true
			families = append(families, name)
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			seenType[fields[0]] = true
		default:
			if !sampleLine.MatchString(line) {
				t.Fatalf("unparseable sample line: %q", line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if cut, ok := strings.CutSuffix(name, suf); ok {
					base = cut
					break
				}
			}
			if !seenHelp[base] || !seenType[base] {
				t.Fatalf("sample %q before its family header", line)
			}
		}
	}
	for _, want := range []string{
		"test_arrivals_total", "test_pending", "test_uptime_seconds",
		"test_latency_seconds", "test_latency_seconds_q",
	} {
		if !seenHelp[want] || !seenType[want] {
			t.Fatalf("family %s missing HELP/TYPE (helps: %v)", want, seenHelp)
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i] <= families[i-1] {
			t.Fatalf("families out of order: %s after %s", families[i], families[i-1])
		}
	}
	if !strings.Contains(out, "test_arrivals_total 42\n") {
		t.Fatalf("counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_q{shard="0",q="0.99"}`) {
		t.Fatalf("quantile gauge missing:\n%s", out)
	}
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "m", nil)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * i * 100)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	buckets := 0
	var last float64
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mono_seconds_bucket{") {
			continue
		}
		buckets++
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bucket value in %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("cumulative bucket decreased: %q after %v", line, prev)
		}
		prev, last = v, v
	}
	if buckets != histBuckets {
		t.Fatalf("got %d bucket lines, want %d", buckets, histBuckets)
	}
	if last != float64(h.Count()) {
		t.Fatalf("final cumulative bucket %v != count %d", last, h.Count())
	}
	if !strings.Contains(b.String(), `le="+Inf"`) {
		t.Fatal("missing +Inf bucket")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every goroutine goes through get-or-create, exercising the
			// registry lock against concurrent increments.
			c := r.Counter("conc_total", "c", nil)
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	// Scrape while the writers run: monotonic reads, no torn values.
	lastSeen := int64(0)
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "conc_total "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("counter sample %q: %v", line, err)
				}
				if n < lastSeen {
					t.Fatalf("counter went backwards: %d after %d", n, lastSeen)
				}
				lastSeen = n
			}
		}
	}
	wg.Wait()
	if got := r.Counter("conc_total", "c", nil).Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q", nil)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
	// 90 fast observations (~1µs), 10 slow (~1ms): p50 must land near the
	// fast mode, p99 near the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(int64(time.Microsecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(time.Millisecond))
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 > float64(4*time.Microsecond) {
		t.Fatalf("p50 = %v ns, want near 1µs", p50)
	}
	if p99 < float64(400*time.Microsecond) {
		t.Fatalf("p99 = %v ns, want near 1ms", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 (%v) < p50 (%v)", p99, p50)
	}
	if h.Count() != 100 || h.Sum() <= 0 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation: count %d sum %d, want 1/0", h.Count(), h.Sum())
	}
}

func TestGetOrCreateIdentityAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "s", Labels{"k": "v"})
	b := r.Counter("same_total", "s", Labels{"k": "v"})
	if a != b {
		t.Fatal("same (name, labels) must return the same instrument")
	}
	if c := r.Counter("same_total", "s", Labels{"k": "w"}); c == a {
		t.Fatal("different labels must return a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing name under another type must panic")
		}
	}()
	r.Gauge("same_total", "s", nil)
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("gf", "g", nil, func() float64 { return 1 })
	r.GaugeFunc("gf", "g", nil, func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gf 2\n") {
		t.Fatalf("re-registered GaugeFunc must win:\n%s", b.String())
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Emit) {
		e.Gauge("coll_gauge", "from collector", nil, 7)
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "coll_gauge 7\n") {
		t.Fatalf("collector output missing:\n%s", b.String())
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Fatalf("gauge = %v after balanced adds, want 0", v)
	}
}

func TestBucketBounds(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	if got := bucketOf(1 << histMinShift); got != 0 {
		t.Fatalf("bucketOf(min bound) = %d, want 0", got)
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("bucketOf(max) = %d, want overflow bucket", got)
	}
	// Every value must land in a bucket whose bound covers it.
	for shift := 0; shift < 63; shift++ {
		v := int64(1) << shift
		b := bucketOf(v)
		if hi := bucketBound(b); float64(v) > hi {
			t.Fatalf("value %d over its bucket %d bound %v", v, b, hi)
		}
	}
}

func TestRing(t *testing.T) {
	r := NewRing[int](3, 0)
	all := func() string {
		out, _ := r.Since(0, 10)
		return fmt.Sprint(out)
	}
	if got, _ := r.Since(0, 10); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for v := 1; v <= 2; v++ {
		r.Append(func(int64) int { return v })
	}
	if got := all(); got != "[1 2]" {
		t.Fatalf("partial ring = %s", got)
	}
	r.Append(func(int64) int { return 3 })
	r.Append(func(int64) int { return 4 }) // overwrites 1
	r.Append(func(int64) int { return 5 }) // overwrites 2
	if got := all(); got != "[3 4 5]" {
		t.Fatalf("wrapped ring = %s, want [3 4 5]", got)
	}
	if oldest, next := r.Window(); oldest != 2 || next != 5 {
		t.Fatalf("Window = [%d, %d), want [2, 5)", oldest, next)
	}
	// A sequence jump restarts the window: the pre-jump entries never
	// covered [5, 9), so they must not be served as if they did.
	r.Put(9, 10)
	if oldest, next := r.Window(); oldest != 9 || next != 10 {
		t.Fatalf("Window after jump = [%d, %d), want [9, 10)", oldest, next)
	}
	if got, oldest := r.Since(3, 10); fmt.Sprint(got) != "[10]" || oldest != 9 {
		t.Fatalf("Since(3) after jump = %v (oldest %d), want [10] at 9", got, oldest)
	}
}
