package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"terids/internal/engine"
	"terids/internal/obs"
)

// phaseTrail records every phase transition srv makes from now on.
func phaseTrail(srv *server) func() []phase {
	var mu sync.Mutex
	var trail []phase
	srv.onPhase = func(p phase) {
		mu.Lock()
		trail = append(trail, p)
		mu.Unlock()
	}
	return func() []phase {
		mu.Lock()
		defer mu.Unlock()
		return append([]phase(nil), trail...)
	}
}

// bootServer builds a server over cfg and boots it through open, exactly as
// main does, with a private journal and its phase transitions recorded.
func bootServer(t *testing.T, f serveFixture, cfg config) (*server, *httptest.Server, func() []phase) {
	t.Helper()
	srv := newServer(f.sh, cfg, 0)
	srv.jr = obs.NewJournal(64)
	trail := phaseTrail(srv)
	if err := srv.open(f.sh, f.cfg.Keywords, "", nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		srv.shutdown()
		ts.Close()
		if srv.dur != nil {
			_ = srv.dur.Close(false)
		} else {
			_ = srv.eng.Close()
		}
	})
	return srv, ts, trail
}

// openWriter opens a durable writer over dir, the process a follower tails.
// Closing it is how a test kills the writer; cleanup closes it otherwise.
func openWriter(t *testing.T, f serveFixture, dir string) *engine.Durable {
	t.Helper()
	w, err := engine.OpenDurable(f.sh, engine.Config{Core: f.cfg, Shards: 2},
		engine.DurableConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close(false) })
	return w
}

// attachFollower builds a follower server over dir by hand, without the
// follower loop, and advances it to phase p.
func attachFollower(t *testing.T, f serveFixture, dir string, p phase) (*server, *httptest.Server, func() []phase) {
	t.Helper()
	srv := newServer(f.sh, serveConfig(t, 256), 0)
	srv.jr = obs.NewJournal(64)
	trail := phaseTrail(srv)
	fol, err := engine.OpenFollower(f.sh,
		engine.Config{Core: f.cfg, Shards: 2, OnResult: srv.onResult},
		engine.DurableConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.eng, srv.dur = fol.Eng, fol
	srv.advance(p)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		srv.shutdown()
		ts.Close()
		_ = fol.Close(false)
	})
	return srv, ts, trail
}

func wantTrail(t *testing.T, trail func() []phase, want ...phase) {
	t.Helper()
	if got := trail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phase trail %v, want %v", got, want)
	}
}

// TestPhaseWalk boots each role through open and checks the phases it
// walks: a writer starting → (recovering →) writing, a follower starting →
// catching up → following → writing on promotion, and a follower promoted
// before its first catch-up straight to writing, where a late catch-up
// cannot pull it back.
func TestPhaseWalk(t *testing.T) {
	f := loadServeFixture(t)
	t.Run("writer", func(t *testing.T) {
		cfg := serveConfig(t, 64)
		cfg.shards = 2
		_, ts, trail := bootServer(t, f, cfg)
		wantTrail(t, trail, phaseWriting)
		ingest(t, ts, f.stream[:10])
	})
	t.Run("durable writer", func(t *testing.T) {
		cfg := serveConfig(t, 64)
		cfg.shards, cfg.walDir = 2, t.TempDir()
		_, ts, trail := bootServer(t, f, cfg)
		wantTrail(t, trail, phaseRecovering, phaseWriting)
		ingest(t, ts, f.stream[:10])
	})
	t.Run("follower", func(t *testing.T) {
		dir := t.TempDir()
		w := openWriter(t, f, dir)
		for _, r := range f.stream[:20] {
			if err := w.Eng.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		cfg := serveConfig(t, 64)
		cfg.shards, cfg.follow = 2, dir
		srv, ts, trail := bootServer(t, f, cfg)
		waitFor(t, "follower caught up", func() bool { return srv.currentPhase() == phaseFollowing })
		wantTrail(t, trail, phaseCatchingUp, phaseFollowing)
		if err := w.Close(false); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/promote", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote after writer close = %d, want 200", resp.StatusCode)
		}
		wantTrail(t, trail, phaseCatchingUp, phaseFollowing, phaseWriting)
		ingest(t, ts, f.stream[20:30])
	})
	t.Run("promotion before catch-up", func(t *testing.T) {
		dir := t.TempDir()
		if err := openWriter(t, f, dir).Close(false); err != nil {
			t.Fatal(err)
		}
		srv, ts, trail := attachFollower(t, f, dir, phaseCatchingUp)
		resp, err := http.Post(ts.URL+"/promote", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("promote while catching up = %d, want 200", resp.StatusCode)
		}
		// The follower loop finds nothing left to do: it returns on its
		// first tick, and the caught-up flip it would have made is refused.
		srv.follow()
		if srv.advance(phaseFollowing) {
			t.Fatal("a late catch-up moved a promoted server back to following")
		}
		wantTrail(t, trail, phaseCatchingUp, phaseWriting)
		ingest(t, ts, f.stream[:10])
	})
}

// TestShutdownWinsOverPromotion is the shutdown race: a promotion that
// lands after shutdown began must not reopen the engine-backed endpoints.
// (Before the phase was one forward-only value, promote stored ready=true
// unconditionally, and /stats answered 200 here.)
func TestShutdownWinsOverPromotion(t *testing.T) {
	f := loadServeFixture(t)
	dir := t.TempDir()
	if err := openWriter(t, f, dir).Close(false); err != nil {
		t.Fatal(err)
	}
	srv, ts, _ := attachFollower(t, f, dir, phaseFollowing)
	srv.shutdown()
	srv.promoteMu.Lock()
	err := srv.promote("test")
	srv.promoteMu.Unlock()
	if err != nil {
		t.Fatalf("promote with the writer gone: %v", err)
	}
	for _, path := range []string{"/stats", "/readyz"} {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
			t.Fatalf("GET %s after shutdown + promote = %d %q, want 503 shutting down", path, resp.StatusCode, body)
		}
	}
	if evs := srv.jr.Snapshot(); len(evs) != 0 {
		t.Fatalf("journal recorded %v for a promotion after shutdown", evs)
	}
}

// TestAutoPromoteOnWriterLoss: with -promote-on-writer-loss, the follower
// loop promotes once the writer's liveness lock has been free for the grace
// period — exactly once — and ingest resumes on the promoted process.
func TestAutoPromoteOnWriterLoss(t *testing.T) {
	f := loadServeFixture(t)
	dir := t.TempDir()
	w := openWriter(t, f, dir)
	for _, r := range f.stream[:20] {
		if err := w.Eng.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	cfg := serveConfig(t, 64)
	cfg.shards, cfg.follow, cfg.promoteOnWriterLoss = 2, dir, time.Millisecond
	srv, ts, trail := bootServer(t, f, cfg)
	waitFor(t, "follower caught up", func() bool { return srv.currentPhase() == phaseFollowing })
	if err := w.Close(false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "writer-loss promotion", func() bool { return srv.currentPhase() == phaseWriting })
	wantTrail(t, trail, phaseCatchingUp, phaseFollowing, phaseWriting)
	ingest(t, ts, f.stream[20:30])
	srv.shutdown() // returns once the follower loop has exited
	promotions := 0
	for _, ev := range srv.jr.Snapshot() {
		if ev.Type == "promote" {
			promotions++
			if ev.Fields["trigger"] != "writer-loss" {
				t.Fatalf("promotion event %+v, want trigger writer-loss", ev)
			}
		}
	}
	if promotions != 1 {
		t.Fatalf("%d promotion events, want exactly 1", promotions)
	}
}
