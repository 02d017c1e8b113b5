package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"terids/internal/engine"
	"terids/internal/obs"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerHTTPModeAndPromotion is the serving-layer replica contract:
// a follower server refuses writes with a reasoned 503, serves reads
// identical to the writer's state, refuses promotion while the writer is
// alive, and after the writer dies flips to a fully functional writer on
// POST /promote — ingest resumes on the same process.
func TestFollowerHTTPModeAndPromotion(t *testing.T) {
	f := loadServeFixture(t)
	n := len(f.stream)
	cut := n / 2
	dir := t.TempDir()

	w, err := engine.OpenDurable(f.sh, engine.Config{Core: f.cfg, Shards: 2},
		engine.DurableConfig{Dir: dir, NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	writerOpen := true
	defer func() {
		if writerOpen {
			_ = w.Close(false)
		}
	}()

	srv := newServer(f.sh, serveConfig(t, 1024), 0)
	fol, err := engine.OpenFollower(f.sh,
		engine.Config{Core: f.cfg, Shards: 2, OnResult: srv.onResult},
		engine.DurableConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.eng = fol.Eng
	srv.dur = fol
	srv.advance(phaseFollowing)
	ts := httptest.NewServer(srv.routes())
	defer func() {
		srv.shutdown()
		ts.Close()
		_ = fol.Close(false)
	}()

	for _, r := range f.stream[:cut] {
		if err := w.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower caught up over HTTP", func() bool {
		return fol.Eng.Completed() == int64(cut) && fol.Lag() == 0
	})

	// Writes are refused with the promotion hint while following.
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /ingest on a follower = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "read-only replica") {
		t.Fatalf("POST /ingest 503 body %q does not name the follower role", body)
	}

	// Promotion is refused while the writer holds the liveness lock.
	resp, err = http.Post(ts.URL+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote with a live writer = %d, want 409", resp.StatusCode)
	}

	// /stats carries the follower block.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	folStats, ok := stats["follower"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no follower block: %v", stats)
	}
	if alive, _ := folStats["writer_alive"].(bool); !alive {
		t.Fatalf("follower stats do not report the live writer: %v", folStats)
	}

	// The writer dies; takeover succeeds and is idempotent.
	if err := w.Close(false); err != nil {
		t.Fatal(err)
	}
	writerOpen = false
	promote := func() map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/promote", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("promote after writer death = %d: %s", resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := promote()
	if got, _ := first["resume_seq"].(float64); int64(got) != int64(cut) {
		t.Fatalf("promotion resumed at %v, want %d", first["resume_seq"], cut)
	}
	again := promote()
	if already, _ := again["already"].(bool); !already {
		t.Fatalf("second promote did not report the promoted state: %v", again)
	}

	// Ingest resumes on the promoted process, through the durable path.
	resp, err = http.Post(ts.URL+"/ingest?wait=1", "application/x-ndjson",
		strings.NewReader(ndjson(t, f.stream[cut:])))
	if err != nil {
		t.Fatal(err)
	}
	var ingest map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ingest); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after promotion = %d: %v", resp.StatusCode, ingest)
	}
	if got, _ := ingest["accepted"].(float64); int(got) != n-cut {
		t.Fatalf("promoted ingest accepted %v records, want %d", ingest["accepted"], n-cut)
	}
	waitFor(t, "promoted pipeline drain", func() bool {
		return fol.Eng.Completed() == int64(n)
	})
	if got := srv.dur.Log.Stats().NextSeq; got != int64(n) {
		t.Fatalf("wal frontier %d after promoted ingest, want %d", got, n)
	}
}

// TestPromoteOnWriter verifies a process started without -follow refuses
// promotion outright.
func TestPromoteOnWriter(t *testing.T) {
	f := loadServeFixture(t)
	_, ts := startServer(t, f, 2, 64, nil)
	resp, err := http.Post(ts.URL+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on a writer = %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(string(body), "not a follower") {
		t.Fatalf("409 body %q does not explain the role", body)
	}
}

// TestEventsCursorEvicted pins the /events?from= contract: an explicit
// cursor below the journal ring's oldest retained event gets an explicit
// 410 naming the oldest reachable sequence, instead of a silent resume
// that skips the gap; cursors at or above it (and requests without a
// cursor) serve normally.
func TestEventsCursorEvicted(t *testing.T) {
	f := loadServeFixture(t)
	srv, ts := startServer(t, f, 2, 64, nil)
	srv.jr = obs.NewJournal(4)
	for i := 0; i < 10; i++ {
		srv.jr.Record("tick", "test event", nil)
	}
	oldest := srv.jr.OldestSeq() // 6: events 0-5 evicted

	resp, err := http.Get(ts.URL + "/events?from=2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted cursor = %d, want 410", resp.StatusCode)
	}
	var gone map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, _ := gone["oldest_retained"].(float64); int64(got) != oldest {
		t.Fatalf("410 names oldest_retained %v, want %d", gone["oldest_retained"], oldest)
	}

	lines := func(url string) (int, int) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		n := 0
		for _, ln := range strings.Split(string(body), "\n") {
			if strings.TrimSpace(ln) != "" {
				n++
			}
		}
		return resp.StatusCode, n
	}
	if code, got := lines(ts.URL + "/events?from=6"); code != http.StatusOK || got != 4 {
		t.Fatalf("from=oldest: status %d with %d events, want 200 with 4", code, got)
	}
	if code, got := lines(ts.URL + "/events"); code != http.StatusOK || got != 4 {
		t.Fatalf("no cursor: status %d with %d events, want 200 with 4", code, got)
	}
	if code, got := lines(ts.URL + "/events?from=99"); code != http.StatusOK || got != 0 {
		t.Fatalf("future cursor: status %d with %d events, want 200 with 0", code, got)
	}
}

// TestFollowerDeepReplayBelowRing: a follower that boots from a checkpoint
// at seq S > 0 bases its replay ring at S, so /results?from=0 must fall
// through to deep replay on the follower, as it does on the writer, and
// return the writer's lines byte for byte.
func TestFollowerDeepReplayBelowRing(t *testing.T) {
	f := loadServeFixture(t)
	n := len(f.stream)
	half := n / 2
	dir := t.TempDir()

	wsrv, w, wts := startDurableServer(t, f, 2, 4096, dir, engine.DurableConfig{})
	defer func() {
		wsrv.shutdown()
		wts.Close()
		_ = w.Close(false)
	}()
	ingest(t, wts, f.stream[:half])
	if _, err := w.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ingest(t, wts, f.stream[half:])

	path, ckpt, err := engine.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || ckpt.Seq != int64(half) {
		t.Fatalf("newest checkpoint %v, want one at seq %d", ckpt, half)
	}
	srv := newServer(f.sh, serveConfig(t, 4096), ckpt.Seq)
	fol, err := engine.OpenFollower(f.sh,
		engine.Config{Core: f.cfg, Shards: 2, OnResult: srv.onResult},
		engine.DurableConfig{Dir: dir, Checkpoint: ckpt, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	srv.eng, srv.dur = fol.Eng, fol
	srv.advance(phaseFollowing)
	fts := httptest.NewServer(srv.routes())
	defer func() {
		srv.shutdown()
		fts.Close()
		_ = fol.Close(false)
	}()
	waitFor(t, "follower caught up", func() bool {
		return fol.Eng.Completed() == int64(n) && fol.Lag() == 0
	})

	want := readRawResults(t, wts, "?from=0", n)
	got := readRawResults(t, fts, "?from=0", n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: follower %s, writer %s", i, got[i], want[i])
		}
	}
	replay, _ := getStats(t, fts)["replay"].(map[string]any)
	if reach, _ := replay["oldest_retained"].(float64); reach != 0 {
		t.Fatalf("follower replay.oldest_retained = %v, want 0", replay["oldest_retained"])
	}
	if deep, _ := replay["deep_replays"].(float64); deep < 1 {
		t.Fatalf("follower replay.deep_replays = %v, want >= 1", replay["deep_replays"])
	}
}
