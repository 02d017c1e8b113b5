package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"terids/internal/core"
	"terids/internal/engine"
	"terids/internal/obs"
	"terids/internal/rules"
	"terids/internal/tuple"
)

// startObsServer is startServer with trace sampling enabled and a shutdown
// func tests can call early (cleanup tolerates both orders).
func startObsServer(t *testing.T, f serveFixture, shards, traceSample int) (*server, *httptest.Server, func()) {
	t.Helper()
	cfg := serveConfig(t, 256)
	cfg.ckptDir = t.TempDir()
	srv := newServer(f.sh, cfg, 0)
	eng, err := engine.New(f.sh, engine.Config{
		Core:        f.cfg,
		Shards:      shards,
		OnResult:    srv.onResult,
		TraceSample: traceSample,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.eng = eng
	srv.advance(phaseWriting)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		srv.shutdown()
		ts.Close()
		_ = eng.Close()
	})
	return srv, ts, srv.shutdown
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestServeMetricsEndpoint drives traffic through the full pipeline and
// checks /metrics is valid text exposition covering every stage, with
// read-time quantiles per latency family.
func TestServeMetricsEndpoint(t *testing.T) {
	f := loadServeFixture(t)
	_, ts, _ := startObsServer(t, f, 2, 4)
	ingest(t, ts, f.stream[:80])

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
	}
	// Every pipeline stage must be represented, each latency family with its
	// read-time quantile series.
	for _, want := range []string{
		"terids_arrivals_total ",
		"terids_impute_queue_wait_seconds_count ",
		"terids_impute_seconds_count ",
		"terids_route_seconds_count ",
		"terids_merge_hold_seconds_count ",
		"terids_merge_pending ",
		`terids_shard_resolve_seconds_count{shard="0"}`,
		`terids_shard_resolve_seconds_count{shard="1"}`,
		`terids_impute_seconds_q{q="0.50"}`,
		`terids_route_seconds_q{q="0.95"}`,
		`terids_merge_hold_seconds_q{q="0.99"}`,
		"terids_traces_sampled_total ",
		"terids_uptime_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// scrapeGauge reads one unlabelled integer-valued gauge off /metrics.
func scrapeGauge(t *testing.T, ts *httptest.Server, name string) int {
	t.Helper()
	_, body := get(t, ts.URL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

var dictGaugeRuns int

// TestServeTokenDictGauge pins terids_token_dict_size: ingesting one record
// whose values hold 40 tokens no one has seen before moves the gauge by
// exactly 40, and ingesting the same vocabulary again moves it no further.
func TestServeTokenDictGauge(t *testing.T) {
	dictGaugeRuns++ // the dictionary outlives the test: -count needs fresh tokens
	f := loadServeFixture(t)
	_, ts, _ := startObsServer(t, f, 2, 0)
	gauge := func() int { return scrapeGauge(t, ts, "terids_token_dict_size") }
	post := func(rid string) {
		t.Helper()
		d := f.sh.Schema.D()
		vals := make([]string, d)
		for i := 0; i < 40; i++ {
			vals[i%d] += fmt.Sprintf("Dictgauge%dx%02d, ", dictGaugeRuns, i)
		}
		line, err := json.Marshal(map[string]any{"rid": rid, "stream": 0, "seq": 0, "values": vals})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/ingest?wait=1", "application/x-ndjson", strings.NewReader(string(line)+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	before := gauge()
	post("dictgauge-a")
	if got := gauge() - before; got != 40 {
		t.Fatalf("gauge moved by %d after 40 new tokens, want 40", got)
	}
	post("dictgauge-b")
	if got := gauge() - before; got != 40 {
		t.Fatalf("gauge moved by %d after the same 40 tokens again, want 40", got)
	}
}

// TestServeNeighbourSetsGauge pins terids_domain_neighbour_sets: over a
// freshly prepared repository it reads 0; after a stream it reads the number
// of distinct (attribute, sample value, dependent interval) keys the
// imputation join asks for on that stream, counted here without an
// accumulator; the same tuples under new RIDs ask for the same keys and move
// it no further.
func TestServeNeighbourSetsGauge(t *testing.T) {
	f := loadServeFixture(t)
	// The fixture's Shared serves every test in the package; this one needs
	// domain indexes nothing has imputed through yet.
	pc := core.DefaultPrepareConfig(f.cfg.Keywords)
	pc.Selection = f.sh.Sel
	sh, err := core.Prepare(f.sh.Repo, pc)
	if err != nil {
		t.Fatal(err)
	}
	f.sh = sh
	srv, ts, _ := startObsServer(t, f, 2, 0)
	gauge := func() int {
		t.Helper()
		if err := srv.eng.Flush(); err != nil { // ?wait=1 is admission, not completion
			t.Fatal(err)
		}
		return scrapeGauge(t, ts, "terids_domain_neighbour_sets")
	}
	if got := gauge(); got != 0 {
		t.Fatalf("gauge reads %d before any arrival, want 0", got)
	}

	batch := f.stream[:80]
	type key struct {
		attr, val      int
		depMin, depMax float64
	}
	want := map[key]bool{}
	again := make([]*tuple.Record, len(batch))
	for i, r := range batch {
		vals := make([]string, r.D())
		for j := range vals {
			vals[j] = r.Value(j)
		}
		again[i] = tuple.MustRecord(sh.Schema, "again-"+r.RID, r.Stream, r.Seq+int64(len(batch)), vals)
		for j := 0; j < r.D(); j++ {
			if !r.IsMissing(j) {
				continue
			}
			var applicable []*rules.Rule
			sh.CDDIdx[j].Applicable(r, func(rule *rules.Rule) bool {
				applicable = append(applicable, rule)
				return true
			})
			dom := sh.Repo.Domain(j)
			sh.DRIdx.MatchingSamplesMulti(r, applicable, func(ri int, smp *tuple.Record) bool {
				want[key{j, dom.Lookup(smp.Value(j)), applicable[ri].DepMin, applicable[ri].DepMax}] = true
				return true
			})
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture: the batch matches no repository sample")
	}
	ingest(t, ts, batch)
	if got := gauge(); got != len(want) {
		t.Fatalf("gauge reads %d after the batch, want %d distinct keys", got, len(want))
	}
	ingest(t, ts, again)
	if got := gauge(); got != len(want) {
		t.Fatalf("gauge reads %d after the same tuples again, want %d still", got, len(want))
	}
}

// TestServeTraceEndpoint: with -trace-sample 1, every arrival's timeline is
// retained and served as one NDJSON object per line.
func TestServeTraceEndpoint(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts, _ := startObsServer(t, f, 2, 1)
	ingest(t, ts, f.stream[:40])
	// ?wait=1 only means blocking submit; a trace is retained when the merger
	// finalizes its arrival, so drain to the watermark before reading.
	if err := srv.eng.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 40 {
		t.Fatalf("/trace returned %d lines, want 40", len(lines))
	}
	for i, line := range lines {
		var tr map[string]any
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("trace line %d not JSON: %v\n%s", i, err, line)
		}
		if int64(tr["seq"].(float64)) != int64(i) {
			t.Fatalf("trace line %d has seq %v (oldest-first order broken)", i, tr["seq"])
		}
		for _, key := range []string{"rid", "home_shard", "impute_queue_wait_ns", "impute_ns", "route_ns", "merge_hold_ns", "total_ns", "pairs"} {
			if _, ok := tr[key]; !ok {
				t.Fatalf("trace line %d missing %q: %s", i, key, line)
			}
		}
		if home := tr["home_shard"].(float64); home != 0 && home != 1 {
			t.Fatalf("trace line %d has home_shard %v on a 2-shard engine: %s", i, home, line)
		}
		if tr["total_ns"].(float64) <= 0 {
			t.Fatalf("trace line %d has non-positive total_ns: %s", i, line)
		}
	}
}

// TestServeHealthReadiness walks the lifecycle: readiness gates on startup
// completing (with the startup phase as the 503 body), engine-backed
// endpoints are gated the same way, and both probes flip to 503 on shutdown.
func TestServeHealthReadiness(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts, shut := startObsServer(t, f, 1, 0)
	srv.phase.Store(int32(phaseStarting)) // rewind the helper: pre-attach startup state

	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz before ready: %d %q, want 200 ok", resp.StatusCode, body)
	}
	// Readiness is withheld until recovery finishes and the phase serves —
	// liveness is not — and the 503 body names the phase.
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("readyz before ready: %d %q, want 503 starting", resp.StatusCode, body)
	}
	srv.advance(phaseRecovering)
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "recovering") {
		t.Fatalf("readyz while recovering: %d %q, want 503 recovering", resp.StatusCode, body)
	}
	// Engine-backed endpoints are readiness-gated with the same reason, so a
	// listener that is up before the engine exists never dereferences it.
	if resp, body := get(t, ts.URL+"/stats"); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "recovering") {
		t.Fatalf("stats while recovering: %d %q, want 503 recovering", resp.StatusCode, body)
	}
	srv.advance(phaseWriting)
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz after ready: %d %q, want 200 ready", resp.StatusCode, body)
	}
	shut()
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
}

// TestServeStatsSchemaStable: /stats carries uptime and a zero-valued
// replay.deep_replays even without -wal-dir, so scrapers see one schema
// regardless of deployment mode.
func TestServeStatsSchemaStable(t *testing.T) {
	f := loadServeFixture(t)
	_, ts, _ := startObsServer(t, f, 1, 0)
	ingest(t, ts, f.stream[:10])

	stats := getStats(t, ts)
	up, ok := stats["uptime_seconds"].(float64)
	if !ok || up <= 0 {
		t.Fatalf("uptime_seconds = %v, want > 0", stats["uptime_seconds"])
	}
	replay, ok := stats["replay"].(map[string]any)
	if !ok {
		t.Fatalf("replay section missing: %v", stats)
	}
	dr, ok := replay["deep_replays"].(float64)
	if !ok || dr != 0 {
		t.Fatalf("replay.deep_replays = %v, want 0 without -wal-dir", replay["deep_replays"])
	}
}

// decodeEvents parses an /events NDJSON body.
func decodeEvents(t *testing.T, body string) []obs.Event {
	t.Helper()
	var out []obs.Event
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	return out
}

// TestServeEventsEndpoint: lifecycle events (here: a stream entering a
// rate-limit episode) land in the journal and stream back from /events as
// NDJSON, with ?from= cursors and malformed-cursor rejection.
func TestServeEventsEndpoint(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts := startServer(t, f, 2, 256, nil)
	srv.limiter = newRateLimiter(1, 3) // 1 tuple/sec, burst 3

	var s0 []*tuple.Record
	for _, r := range f.stream {
		if r.Stream == 0 && len(s0) < 6 {
			s0 = append(s0, r)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest?wait=1", "application/x-ndjson",
		strings.NewReader(ndjson(t, s0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit ingest: status %d, want 429", resp.StatusCode)
	}

	eresp, body := get(t, ts.URL+"/events")
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("/events status %d", eresp.StatusCode)
	}
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/events content type %q", ct)
	}
	events := decodeEvents(t, body)
	if len(events) == 0 {
		t.Fatal("/events returned no events after a throttled ingest")
	}
	var throttle *obs.Event
	for i := range events {
		if events[i].Type == "throttle" {
			throttle = &events[i]
		}
	}
	if throttle == nil {
		t.Fatalf("events missing throttle:\n%s", body)
	}
	if throttle.Fields["stream"].(float64) != 0 {
		t.Fatalf("throttle stream %v, want 0", throttle.Fields["stream"])
	}
	if throttle.Fields["retry_after_s"].(float64) < 1 {
		t.Fatalf("throttle retry_after_s %v, want >= 1", throttle.Fields["retry_after_s"])
	}

	// Cursor: resuming from the last event's seq returns exactly that suffix.
	last := events[len(events)-1].Seq
	_, tail := get(t, fmt.Sprintf("%s/events?from=%d", ts.URL, last))
	tailEvents := decodeEvents(t, tail)
	if len(tailEvents) < 1 || tailEvents[0].Seq != last {
		t.Fatalf("/events?from=%d starts at %v, want %d", last, tailEvents, last)
	}
	if bad, _ := get(t, ts.URL+"/events?from=abc"); bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("/events?from=abc status %d, want 400", bad.StatusCode)
	}
}

// TestServeSLOEndpointBreach wires a deliberately impossible latency
// objective into the server: after one evaluation tick over real ingest
// latencies the objective reports breach on /slo, and the ok→breach
// transition is in the journal (and so on /events).
func TestServeSLOEndpointBreach(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts, _ := startObsServer(t, f, 2, 0)
	ingest(t, ts, f.stream[:60])

	obj, err := obs.ParseSLO("serve-ingest-lat:terids_impute_seconds:p99<1ns")
	if err != nil {
		t.Fatal(err)
	}
	slo := obs.NewSLOEngine(srv.reg, srv.jr, []obs.Objective{obj},
		time.Second, 10*time.Second, time.Minute)
	srv.slo = slo
	slo.Tick(time.Now())

	resp, body := get(t, ts.URL+"/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/slo status %d", resp.StatusCode)
	}
	var out struct {
		Objectives []obs.SLOStatus `json:"objectives"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, body)
	}
	var st *obs.SLOStatus
	for i := range out.Objectives {
		if out.Objectives[i].Objective == "serve-ingest-lat" {
			st = &out.Objectives[i]
		}
	}
	if st == nil {
		t.Fatalf("/slo missing serve-ingest-lat: %s", body)
	}
	if st.State != "breach" || st.BurnRateFast < 1 || st.BudgetRemaining != 0 {
		t.Fatalf("breached objective reports %+v, want state=breach burn_fast>=1 budget=0", st)
	}
	if st.Current <= 1e-9 {
		t.Fatalf("current p99 %v s, want > 1ns", st.Current)
	}

	// The transition is journaled, hence visible on /events.
	_, ebody := get(t, ts.URL+"/events")
	found := false
	for _, ev := range decodeEvents(t, ebody) {
		if ev.Type == "slo_transition" && ev.Fields["slo"] == "serve-ingest-lat" &&
			ev.Fields["to"] == "breach" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slo_transition to breach for serve-ingest-lat in /events:\n%s", ebody)
	}

	// The state gauges are on /metrics.
	_, mbody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`terids_slo_state{slo="serve-ingest-lat"} 2`,
		`terids_slo_budget_remaining{slo="serve-ingest-lat"} 0`,
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestServeDebugDump: POST /debug/dump writes a parseable flight bundle and
// returns its path; without a flight recorder the endpoint is a 404.
func TestServeDebugDump(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts, _ := startObsServer(t, f, 2, 2)
	ingest(t, ts, f.stream[:40])
	dir := t.TempDir()
	srv.flight = &obs.Flight{
		Dir: dir, Version: "test",
		Registry: srv.reg, Journal: srv.jr,
		Traces: func() any { return srv.eng.Traces() },
		Stats:  func() any { return srv.eng.Stats() },
	}
	srv.jr.Record("test_marker", "dump test marker", nil)

	resp, body := get(t, ts.URL+"/healthz") // warm liveness before the dump
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	dresp, err := http.Post(ts.URL+"/debug/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || out.Path == "" {
		t.Fatalf("POST /debug/dump: status %d path %q", dresp.StatusCode, out.Path)
	}
	raw, err := os.ReadFile(out.Path)
	if err != nil {
		t.Fatal(err)
	}
	var bundle obs.FlightBundle
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle not JSON: %v", err)
	}
	if bundle.Reason != "http" || len(bundle.Events) == 0 ||
		!strings.Contains(bundle.Metrics, "terids_arrivals_total") ||
		!strings.Contains(bundle.Goroutines, "goroutine") {
		t.Fatalf("bundle incomplete: reason=%q events=%d metrics=%dB",
			bundle.Reason, len(bundle.Events), len(bundle.Metrics))
	}
	marked := false
	for _, ev := range bundle.Events {
		if ev.Type == "test_marker" {
			marked = true
		}
	}
	if !marked {
		t.Fatal("bundle events missing the journaled marker")
	}

	// No recorder configured: 404, nothing written.
	_, ts2 := startServer(t, f, 1, 8, nil)
	nresp, err := http.Post(ts2.URL+"/debug/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("dump without -flight-dir: status %d, want 404", nresp.StatusCode)
	}
}
