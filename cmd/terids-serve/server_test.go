package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/engine"
	"terids/internal/snapshot"
	"terids/internal/testutil"
	"terids/internal/tuple"
)

type serveFixture struct {
	sh     *core.Shared
	cfg    core.Config
	stream []*tuple.Record
}

var (
	serveFixOnce sync.Once
	serveFix     serveFixture
	serveFixErr  error
)

func loadServeFixture(t *testing.T) serveFixture {
	t.Helper()
	serveFixOnce.Do(func() {
		prof, err := dataset.ProfileByName("Citations")
		if err != nil {
			serveFixErr = err
			return
		}
		data, err := dataset.Generate(prof, dataset.Options{
			Scale: 0.25, MissingRate: 0.3, MissingAttrs: 1, RepoRatio: 0.5, Seed: 7,
		})
		if err != nil {
			serveFixErr = err
			return
		}
		sh, err := core.Prepare(data.Repo, core.DefaultPrepareConfig(data.Keywords))
		if err != nil {
			serveFixErr = err
			return
		}
		stream := data.Stream
		if len(stream) > 200 {
			stream = stream[:200]
		}
		serveFix = serveFixture{
			sh: sh,
			cfg: core.Config{
				Keywords:   data.Keywords,
				Gamma:      0.5 * float64(data.Schema.D()),
				Alpha:      0.4,
				WindowSize: 50,
				Streams:    2,
			},
			stream: stream,
		}
	})
	if serveFixErr != nil {
		t.Fatalf("serve fixture: %v", serveFixErr)
	}
	return serveFix
}

// serveConfig is the server config the tests run with: the defaults, the
// fixture's operator parameters, a ringCap-result replay ring, and ingest
// submitting per line.
func serveConfig(t *testing.T, ringCap int) config {
	t.Helper()
	cfg, err := parseConfig([]string{
		"-alpha=0.4", "-w=50", "-ingest-batch=1", "-replay-buffer=" + strconv.Itoa(ringCap),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// startServer builds a server + engine pair (optionally from a checkpoint)
// and registers cleanup.
func startServer(t *testing.T, f serveFixture, shards, ringCap int, ckpt *snapshot.Checkpoint) (*server, *httptest.Server) {
	t.Helper()
	ringBase := int64(0)
	if ckpt != nil {
		ringBase = ckpt.Seq
	}
	scfg := serveConfig(t, ringCap)
	scfg.ckptDir = t.TempDir()
	srv := newServer(f.sh, scfg, ringBase)
	cfg := engine.Config{Core: f.cfg, Shards: shards, OnResult: srv.onResult}
	var eng *engine.Engine
	var err error
	if ckpt != nil {
		eng, err = engine.NewFromSnapshot(f.sh, cfg, ckpt)
	} else {
		eng, err = engine.New(f.sh, cfg)
	}
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
	return srv, ts
}

func ndjson(t *testing.T, recs []*tuple.Record) string {
	t.Helper()
	var b strings.Builder
	for _, r := range recs {
		vals := make([]string, r.D())
		for j := range vals {
			vals[j] = r.Value(j)
		}
		line, err := json.Marshal(map[string]any{
			"rid": r.RID, "stream": r.Stream, "seq": r.Seq, "values": vals,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func ingest(t *testing.T, ts *httptest.Server, recs []*tuple.Record) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest?wait=1", "application/x-ndjson",
		strings.NewReader(ndjson(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Accepted != len(recs) {
		t.Fatalf("ingest: status %d accepted %d (%s), want 200/%d",
			resp.StatusCode, out.Accepted, out.Error, len(recs))
	}
}

// readResults streams /results?from= and returns the first n lines.
func readResults(t *testing.T, ts *httptest.Server, query string, n int) []resultLine {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/results"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /results%s: status %d", query, resp.StatusCode)
	}
	var out []resultLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for len(out) < n && sc.Scan() {
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad result line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if len(out) < n {
		t.Fatalf("stream ended after %d lines, want %d (scan err %v)", len(out), n, sc.Err())
	}
	return out
}

// TestServeReplayAndSnapshotRestore is the end-to-end operations flow:
// ingest half the stream, replay it exactly from sequence numbers via
// /results?from=, take a barrier checkpoint over HTTP, restore it into a
// second server at a different shard count, finish the stream there, and
// check the final entity set matches an uninterrupted single-threaded run.
func TestServeReplayAndSnapshotRestore(t *testing.T) {
	f := loadServeFixture(t)
	mid := len(f.stream) / 2

	_, ts := startServer(t, f, 2, 4096, nil)
	ingest(t, ts, f.stream[:mid])

	// Barrier checkpoint over HTTP (binary body).
	resp, err := http.Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot: status %d (%s)", resp.StatusCode, body.String())
	}
	ckpt, err := snapshot.Decode(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Seq != int64(mid) {
		t.Fatalf("checkpoint watermark %d, want %d", ckpt.Seq, mid)
	}

	// Replay from 0: every merged result, in order, exactly once.
	lines := readResults(t, ts, "?from=0", mid)
	for i, line := range lines {
		if line.Seq != int64(i) {
			t.Fatalf("replay line %d has seq %d", i, line.Seq)
		}
		if line.RID != f.stream[i].RID {
			t.Fatalf("replay seq %d: rid %s, want %s", i, line.RID, f.stream[i].RID)
		}
	}
	// Replay from a mid-stream sequence.
	tail := readResults(t, ts, fmt.Sprintf("?from=%d", mid-10), 10)
	if tail[0].Seq != int64(mid-10) || tail[9].Seq != int64(mid-1) {
		t.Fatalf("tail replay spans [%d,%d], want [%d,%d]", tail[0].Seq, tail[9].Seq, mid-10, mid-1)
	}

	// Restore into a fresh server at a different shard count and finish.
	srv2, ts2 := startServer(t, f, 4, 4096, ckpt)
	ingest(t, ts2, f.stream[mid:])
	if _, err := srv2.eng.Checkpoint(); err != nil { // barrier = drain
		t.Fatal(err)
	}

	// The restored server's replay starts at the restore watermark...
	cont := readResults(t, ts2, fmt.Sprintf("?from=%d", mid), len(f.stream)-mid)
	if cont[0].Seq != int64(mid) {
		t.Fatalf("restored replay starts at %d, want %d", cont[0].Seq, mid)
	}
	// ...and pre-restore sequences are correctly reported gone.
	goneResp, err := http.Get(ts2.URL + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer goneResp.Body.Close()
	if goneResp.StatusCode != http.StatusGone {
		t.Fatalf("pre-restore replay: status %d, want 410", goneResp.StatusCode)
	}

	// Final entity set equals the uninterrupted single-threaded reference.
	proc, err := core.NewProcessor(f.sh, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.stream {
		if _, err := proc.Advance(r); err != nil {
			t.Fatal(err)
		}
	}
	want := proc.Results().Pairs()
	got := srv2.eng.ResultSet()
	if len(got) != len(want) {
		t.Fatalf("final entity set: server %d pairs, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].A.RID != want[i].A.RID || got[i].B.RID != want[i].B.RID || got[i].Prob != want[i].Prob {
			t.Fatalf("final pair %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestServeSnapshotToPath covers the server-side checkpoint write, confined
// to the configured checkpoint directory.
func TestServeSnapshotToPath(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts := startServer(t, f, 2, 64, nil)
	ingest(t, ts, f.stream[:40])

	resp, err := http.Post(ts.URL+"/snapshot?path=ckpt.bin", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta struct {
		Path      string `json:"path"`
		Seq       int64  `json:"seq"`
		Residents int    `json:"residents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || meta.Seq != 40 {
		t.Fatalf("snapshot?path: status %d meta %+v", resp.StatusCode, meta)
	}
	if meta.Path != srv.cfg.ckptDir+"/ckpt.bin" {
		t.Fatalf("checkpoint landed at %s, want inside %s", meta.Path, srv.cfg.ckptDir)
	}
	c, err := snapshot.ReadFile(meta.Path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != 40 {
		t.Fatalf("file watermark %d, want 40", c.Seq)
	}

	// Escapes and absolute paths are refused; so is any write when no
	// checkpoint directory is configured.
	for _, bad := range []string{"/etc/passwd", "../escape.bin", "a/../../escape.bin"} {
		resp, err := http.Post(ts.URL+"/snapshot?path="+bad, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("snapshot?path=%s: status %d, want 403", bad, resp.StatusCode)
		}
	}
	srv.cfg.ckptDir = ""
	resp2, err := http.Post(ts.URL+"/snapshot?path=ckpt.bin", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Fatalf("snapshot?path with no -checkpoint-dir: status %d, want 403", resp2.StatusCode)
	}
}

// TestServeReplayEviction: a tiny ring loses old results and reports 410
// with the oldest retained sequence.
func TestServeReplayEviction(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts := startServer(t, f, 2, 8, nil)
	ingest(t, ts, f.stream[:50])
	if _, err := srv.eng.Checkpoint(); err != nil { // drain so all 50 merged
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted replay: status %d, want 410", resp.StatusCode)
	}
	var out struct {
		OldestRetained int64 `json:"oldest_retained"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.OldestRetained != 42 {
		t.Fatalf("oldest_retained %d, want 42", out.OldestRetained)
	}
	// /stats exposes the same retention window, so clients can size from=
	// without probing for a 410.
	st := getStats(t, ts)
	replay, ok := st["replay"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no replay block: %v", st)
	}
	if got := replay["oldest_retained"].(float64); got != 42 {
		t.Fatalf("/stats replay.oldest_retained %v, want 42", got)
	}
	if got := replay["next_seq"].(float64); got != 50 {
		t.Fatalf("/stats replay.next_seq %v, want 50", got)
	}
	if got := replay["retained"].(float64); got != 8 {
		t.Fatalf("/stats replay.retained %v, want 8", got)
	}
	// The retained tail still replays.
	lines := readResults(t, ts, "?from=42", 8)
	if lines[0].Seq != 42 || lines[7].Seq != 49 {
		t.Fatalf("tail spans [%d,%d], want [42,49]", lines[0].Seq, lines[7].Seq)
	}
}

// getStats fetches and decodes /stats.
func getStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeReplayFromFutureSeq: a cursor beyond the newest merged result
// must wait for it — never stream results below the cursor.
func TestServeReplayFromFutureSeq(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts := startServer(t, f, 2, 64, nil)
	ingest(t, ts, f.stream[:20])

	body := ndjson(t, f.stream[20:40])
	go func() {
		// Results 20..39 are ingested only once the replay below has
		// subscribed at cursor 25, so it is the wait path — not a ring that
		// already holds them — that serves it. (No test helpers here:
		// t.Fatal is not allowed off the test goroutine.)
		subscribed := func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return len(srv.subs) > 0
		}
		for deadline := time.Now().Add(30 * time.Second); !subscribed(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the /results reader never subscribed")
				return
			}
		}
		resp, err := http.Post(ts.URL+"/ingest?wait=1", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	lines := readResults(t, ts, "?from=25", 10)
	for i, line := range lines {
		if line.Seq != int64(25+i) {
			t.Fatalf("line %d has seq %d, want %d (cursor must never rewind)", i, line.Seq, 25+i)
		}
	}
}

// startDurableServer boots a server over a durability directory via the
// auto-recovery path (newest checkpoint + WAL replay), exactly as -wal-dir
// does.
func startDurableServer(t *testing.T, f serveFixture, shards, ringCap int, dir string, dcfg engine.DurableConfig) (*server, *engine.Durable, *httptest.Server) {
	t.Helper()
	path, ckpt, err := engine.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	ringBase := int64(0)
	if ckpt != nil {
		ringBase = ckpt.Seq
	}
	srv := newServer(f.sh, serveConfig(t, ringCap), ringBase)
	dcfg.Dir = dir
	dcfg.Checkpoint = ckpt
	dcfg.CheckpointPath = path
	dcfg.NoSync = true
	dur, err := engine.OpenDurable(f.sh,
		engine.Config{Core: f.cfg, Shards: shards, OnResult: srv.onResult}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.eng = dur.Eng
	srv.dur = dur
	srv.advance(phaseWriting)
	return srv, dur, httptest.NewServer(srv.routes())
}

// readRawResults streams /results?from= and returns the first n raw NDJSON
// lines — for byte-identity comparisons across restarts.
func readRawResults(t *testing.T, ts *httptest.Server, query string, n int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/results"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /results%s: status %d", query, resp.StatusCode)
	}
	var out []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for len(out) < n && sc.Scan() {
		out = append(out, sc.Text())
	}
	if len(out) < n {
		t.Fatalf("stream ended after %d lines, want %d (scan err %v)", len(out), n, sc.Err())
	}
	return out
}

// TestServeDurableRestart is the serving half of the durability contract: a
// client's /results?from= cursor taken before a restart must replay the full
// gap afterwards — served from the WAL-backed ring rebuilt on recovery — with
// no 410, and /stats must surface the subsystem's health.
func TestServeDurableRestart(t *testing.T) {
	f := loadServeFixture(t)
	dir := t.TempDir()

	srv1, dur1, ts1 := startDurableServer(t, f, 2, 4096, dir, engine.DurableConfig{})
	ingest(t, ts1, f.stream[:40])
	if _, err := dur1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts1, f.stream[40:100])
	// The "crash": stop serving without a final checkpoint, so sequences
	// [40, 100) exist only in the WAL.
	srv1.shutdown()
	ts1.Close()
	if err := dur1.Close(false); err != nil {
		t.Fatal(err)
	}

	srv2, dur2, ts2 := startDurableServer(t, f, 4, 4096, dir, engine.DurableConfig{})
	defer func() {
		srv2.shutdown()
		ts2.Close()
		_ = dur2.Close(false)
	}()
	if dur2.ResumeSeq() != 100 || dur2.Replayed() != 60 {
		t.Fatalf("recovery resumed at %d with %d replayed, want 100/60", dur2.ResumeSeq(), dur2.Replayed())
	}

	// A cursor from before the crash, spanning the restart: the whole gap
	// streams back, no 410.
	lines := readResults(t, ts2, "?from=50", 50)
	for i, line := range lines {
		if line.Seq != int64(50+i) {
			t.Fatalf("line %d has seq %d, want %d", i, line.Seq, 50+i)
		}
		if line.RID != f.stream[50+i].RID {
			t.Fatalf("seq %d replayed rid %s, want %s", line.Seq, line.RID, f.stream[50+i].RID)
		}
	}
	// Live ingest continues seamlessly after the replayed gap.
	ingest(t, ts2, f.stream[100:120])
	cont := readResults(t, ts2, "?from=95", 25)
	if cont[0].Seq != 95 || cont[24].Seq != 119 {
		t.Fatalf("spanning read covers [%d,%d], want [95,119]", cont[0].Seq, cont[24].Seq)
	}
	// Results older than the restored checkpoint never entered the rebuilt
	// ring, but the WAL still reaches back to genesis — deep replay
	// regenerates them exactly instead of the pre-PR 410.
	pre := readResults(t, ts2, "?from=10", 40)
	for i, line := range pre {
		if line.Seq != int64(10+i) {
			t.Fatalf("deep-replayed line %d has seq %d, want %d", i, line.Seq, 10+i)
		}
		if line.RID != f.stream[10+i].RID {
			t.Fatalf("deep-replayed seq %d has rid %s, want %s", line.Seq, line.RID, f.stream[10+i].RID)
		}
	}

	// /stats surfaces WAL and checkpointer health.
	st := getStats(t, ts2)
	durStats, ok := st["durability"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no durability block: %v", st)
	}
	walStats := durStats["wal"].(map[string]any)
	if got := walStats["next_seq"].(float64); got != 120 {
		t.Fatalf("durability.wal.next_seq %v, want 120", got)
	}
	if got := walStats["segments"].(float64); got < 1 {
		t.Fatalf("durability.wal.segments %v, want >= 1", got)
	}
	if got := durStats["replayed"].(float64); got != 60 {
		t.Fatalf("durability.replayed %v, want 60", got)
	}
	if got := durStats["last_checkpoint_seq"].(float64); got != 40 {
		t.Fatalf("durability.last_checkpoint_seq %v, want 40", got)
	}
	if durStats["recovered_from"].(string) == "" {
		t.Fatal("durability.recovered_from empty after a snapshot recovery")
	}
	// The replay block reflects deep-replay reach: the ring starts at the
	// restored watermark, but /results?from= can reach back to genesis.
	replay, ok := st["replay"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no replay block: %v", st)
	}
	if got := replay["oldest_retained"].(float64); got != 0 {
		t.Fatalf("/stats replay.oldest_retained %v, want 0 (deep-replay reach)", got)
	}
	if got := replay["ring_oldest"].(float64); got != 40 {
		t.Fatalf("/stats replay.ring_oldest %v, want 40", got)
	}
	if got := replay["deep_replays"].(float64); got < 1 {
		t.Fatalf("/stats replay.deep_replays %v, want >= 1", got)
	}
}

// TestServeIngestRateLimit: per-stream token buckets — an over-limit stream
// gets 429 with Retry-After while other streams keep flowing, and /stats
// counts the rejections.
func TestServeIngestRateLimit(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts := startServer(t, f, 1, 64, nil)
	srv.limiter = newRateLimiter(1, 3) // 1 tuple/sec, burst 3

	var s0, s1 []*tuple.Record
	for _, r := range f.stream {
		if r.Stream == 0 && len(s0) < 6 {
			s0 = append(s0, r)
		}
		if r.Stream == 1 && len(s1) < 3 {
			s1 = append(s1, r)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest?wait=1", "application/x-ndjson",
		strings.NewReader(ndjson(t, s0)))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit ingest: status %d, want 429", resp.StatusCode)
	}
	if out.Accepted != 3 {
		t.Fatalf("accepted %d lines before the limit, want the burst of 3", out.Accepted)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 carries Retry-After %q, want >= 1 second", ra)
	}
	// Stream 1's bucket is untouched by stream 0's exhaustion.
	ingest(t, ts, s1)
	if got := getStats(t, ts)["rate_limited"].(float64); got != 1 {
		t.Fatalf("/stats rate_limited %v, want 1", got)
	}
	// Out-of-range stream ids are rejected BEFORE the limiter, so arbitrary
	// client-chosen ids cannot grow its bucket map.
	bad, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"rid":"x","stream":999999,"values":["a","b","c","d"]}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range stream: status %d, want 400", bad.StatusCode)
	}
	srv.limiter.mu.Lock()
	nBuckets := len(srv.limiter.buckets)
	srv.limiter.mu.Unlock()
	if nBuckets > f.cfg.Streams {
		t.Fatalf("limiter holds %d buckets for %d streams: invalid ids leaked in", nBuckets, f.cfg.Streams)
	}
}

// TestServeCrashRestartRingRebuild is the black-box restart test of the
// replay paths: ingest over HTTP, SIGKILL-style teardown (the durability
// directory is cloned mid-flight, exactly the bytes a kill -9 leaves — no
// drain, no exit checkpoint), reboot a -wal-dir server on the clone with a
// replay ring too small to hold the backlog, and a /results?from= cursor
// taken before the crash — including one far below the rebuilt ring — must
// resume across the restart without a 410, byte-identical to the pre-crash
// stream: the ring serves its window, WAL-backed deep replay regenerates
// everything below it.
func TestServeCrashRestartRingRebuild(t *testing.T) {
	f := loadServeFixture(t)
	dir := t.TempDir()

	srv1, dur1, ts1 := startDurableServer(t, f, 2, 4096, dir, engine.DurableConfig{})
	ingest(t, ts1, f.stream[:40])
	if _, err := dur1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts1, f.stream[40:100])
	// The byte-level reference: the full pre-crash result stream as the
	// uninterrupted server serialized it.
	want := readRawResults(t, ts1, "?from=0", 100)
	// The kill: clone the durable state while the server is still up. The
	// teardown below is only goroutine hygiene — recovery works off the
	// clone, which never saw a graceful close.
	crashDir := t.TempDir()
	testutil.CopyTree(t, dir, crashDir)
	srv1.shutdown()
	ts1.Close()
	if err := dur1.Close(false); err != nil {
		t.Fatal(err)
	}

	// Restart with a 16-slot ring: the rebuilt ring holds only [84, 100), so
	// every earlier cursor exercises deep replay.
	srv2, dur2, ts2 := startDurableServer(t, f, 4, 16, crashDir, engine.DurableConfig{})
	defer func() {
		srv2.shutdown()
		ts2.Close()
		_ = dur2.Close(false)
	}()
	if dur2.ResumeSeq() != 100 || dur2.Replayed() != 60 {
		t.Fatalf("crash recovery resumed at %d with %d replayed, want 100/60", dur2.ResumeSeq(), dur2.Replayed())
	}
	// A cursor far below the ring (and below the restored checkpoint at 40):
	// the whole history streams back byte-identical to the pre-crash run —
	// deep replay for [0, 84), the live ring from there.
	got := readRawResults(t, ts2, "?from=0", 100)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deep-replayed line %d differs across the crash:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	// A mid-gap cursor spans the restart the same way: no 410, no gap, no
	// rewind.
	lines := readResults(t, ts2, "?from=50", 50)
	for i, line := range lines {
		if line.Seq != int64(50+i) {
			t.Fatalf("line %d has seq %d, want %d", i, line.Seq, 50+i)
		}
		if line.RID != f.stream[50+i].RID {
			t.Fatalf("seq %d replayed rid %s, want %s", line.Seq, line.RID, f.stream[50+i].RID)
		}
	}
	// Live ingest continues seamlessly past the recovered frontier.
	ingest(t, ts2, f.stream[100:110])
	cont := readResults(t, ts2, "?from=98", 12)
	if cont[0].Seq != 98 || cont[11].Seq != 109 {
		t.Fatalf("spanning read covers [%d,%d], want [98,109]", cont[0].Seq, cont[11].Seq)
	}
	// The recovered server also exposes metrics: recovery + live traffic left
	// samples in the WAL and stage families.
	mresp, mbody := get(t, ts2.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK || mbody == "" {
		t.Fatalf("/metrics after crash recovery: status %d, %d bytes", mresp.StatusCode, len(mbody))
	}
	for _, want := range []string{"terids_arrivals_total", "terids_wal_commit_seconds_count"} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("post-recovery /metrics missing %s", want)
		}
	}
}

// TestServeDeepReplayDepthAndPrunedCoverage pins down when 410 is still the
// answer: a cursor below the deep-replay reach (WAL genuinely truncated by
// checkpoint pruning), or a gap wider than -replay-depth allows. In both
// cases oldest_retained names the deepest reachable sequence.
func TestServeDeepReplayDepthAndPrunedCoverage(t *testing.T) {
	f := loadServeFixture(t)
	dir := t.TempDir()

	// Tiny WAL segments + KeepCheckpoints=1 so pruning genuinely drops
	// coverage below the newest checkpoint; an 8-slot ring forces every old
	// cursor through the deep-replay path.
	srv, dur, ts := startDurableServer(t, f, 2, 8, dir,
		engine.DurableConfig{SegmentBytes: 512, KeepCheckpoints: 1})
	defer func() {
		srv.shutdown()
		ts.Close()
		_ = dur.Close(false)
	}()
	ingest(t, ts, f.stream[:60])
	if _, err := dur.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts, f.stream[60:100])
	if _, err := dur.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := dur.Stats()
	if st.WAL.FirstSeq == 0 {
		t.Skip("wal not truncated at this segment size; cannot exercise pruned coverage")
	}
	if st.ReplayReach != 100 {
		t.Fatalf("deep-replay reach %d, want 100 (the only retained checkpoint)", st.ReplayReach)
	}

	// Below the reach: genuinely gone, and oldest_retained names the oldest
	// cursor that WOULD work — the ring's tail (92), since the ring reaches
	// further down than the pruned checkpoint+WAL coverage here.
	resp, err := http.Get(ts.URL + "/results?from=20")
	if err != nil {
		t.Fatal(err)
	}
	var gone struct {
		OldestRetained int64 `json:"oldest_retained"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || gone.OldestRetained != 92 {
		t.Fatalf("below-coverage cursor: status %d oldest %d, want 410/92", resp.StatusCode, gone.OldestRetained)
	}

	// At the reach: deep replay serves it even though the ring starts at 92.
	ingest(t, ts, f.stream[100:120])
	lines := readResults(t, ts, "?from=100", 20)
	for i, line := range lines {
		if line.Seq != int64(100+i) {
			t.Fatalf("line %d has seq %d, want %d", i, line.Seq, 100+i)
		}
	}

	// Depth bound: a 3-arrival budget cannot regenerate the 12-arrival gap
	// to the ring's tail (112).
	srv.cfg.replayDepth = 3
	resp2, err := http.Get(ts.URL + "/results?from=100")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("over-depth replay: status %d, want 410", resp2.StatusCode)
	}
	// The gate measures to the splice point, not the WAL frontier: 15 covers
	// the 12-arrival gap to the ring even though the frontier is 20 away.
	srv.cfg.replayDepth = 15
	tail := readResults(t, ts, "?from=100", 20)
	if tail[0].Seq != 100 || tail[19].Seq != 119 {
		t.Fatalf("in-depth replay spans [%d,%d], want [100,119]", tail[0].Seq, tail[19].Seq)
	}
	srv.cfg.replayDepth = 0
}

// TestServeBadFrom rejects malformed replay cursors.
func TestServeBadFrom(t *testing.T) {
	f := loadServeFixture(t)
	_, ts := startServer(t, f, 1, 8, nil)
	for _, q := range []string{"?from=abc", "?from=-3", "?from=1.5"} {
		resp, err := http.Get(ts.URL + "/results" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /results%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestServeIngestBatched: with -ingest-batch > 1, /ingest groups NDJSON
// lines into one engine submission per batch — and the result stream stays
// byte-identical to the submit-per-line server. A bad line mid-request still
// honours the per-line contract: the parsed prefix is flushed and counted
// before the error is reported, so the client resumes from accepted+1.
func TestServeIngestBatched(t *testing.T) {
	f := loadServeFixture(t)
	n := len(f.stream) - 5 // keep 5 records for the error-mid-batch case
	if n > 115 {
		n = 115
	}

	single, tsSingle := startServer(t, f, 2, 256, nil)
	if single.cfg.ingestBatch != 1 {
		t.Fatalf("serveConfig sets ingestBatch=%d, want 1", single.cfg.ingestBatch)
	}
	ingest(t, tsSingle, f.stream[:n])

	batched, tsBatched := startServer(t, f, 2, 256, nil)
	batched.cfg.ingestBatch = 7 // uneven vs. n: exercises the trailing partial flush
	ingest(t, tsBatched, f.stream[:n])

	want := readResults(t, tsSingle, "?from=0", n)
	got := readResults(t, tsBatched, "?from=0", n)
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("result %d diverges under batching:\n  batched: %+v\n  per-line: %+v", i, got[i], want[i])
		}
	}

	// A malformed line after 5 good ones: 400, accepted=5 (prefix flushed),
	// and the 5 flushed arrivals show up in /results.
	body := ndjson(t, f.stream[n:n+5]) + "{\"rid\":\"\",\"stream\":0,\"values\":[]}\n"
	resp, err := http.Post(tsBatched.URL+"/ingest?wait=1", "application/x-ndjson",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Accepted int    `json:"accepted"`
		Line     int    `json:"line"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad line mid-batch: status %d, want 400", resp.StatusCode)
	}
	if out.Accepted != 5 || out.Line != 6 {
		t.Fatalf("bad line mid-batch: accepted=%d line=%d (%s), want accepted=5 line=6",
			out.Accepted, out.Line, out.Error)
	}
	flushed := readResults(t, tsBatched, fmt.Sprintf("?from=%d", n), 5)
	for i, line := range flushed {
		if line.RID != f.stream[n+i].RID {
			t.Fatalf("flushed prefix arrival %d: rid %q, want %q", i, line.RID, f.stream[n+i].RID)
		}
	}
}
