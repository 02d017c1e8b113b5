package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"terids/internal/obs"
	"terids/internal/testutil"
)

// TestMain re-execs the test binary as a real terids-serve process when
// TERIDS_SERVE_CHILD is set: the crash-injection test below needs an actual
// OS process it can SIGQUIT, not an httptest server. In normal mode the run
// is additionally gated on goroutine hygiene — the servers and engines the
// tests start must be fully torn down.
func TestMain(m *testing.M) {
	if os.Getenv("TERIDS_SERVE_CHILD") == "1" {
		main()
		return
	}
	testutil.VerifyNoLeaks(m)
}

var listeningLine = regexp.MustCompile(`listening on (\S+) \(`)

// TestCrashFlightRecorder boots a loaded server in a child process, SIGQUITs
// it, and asserts the flight recorder left a complete, parseable bundle: at
// least one journal event, at least one sampled trace, and a /metrics
// snapshot — the post-mortem contract.
func TestCrashFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real server process")
	}
	f := loadServeFixture(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe,
		"-addr=127.0.0.1:0", "-scale=0.25", "-shards=2", "-w=50",
		"-trace-sample=1", "-flight-dir="+dir)
	cmd.Env = append(os.Environ(), "TERIDS_SERVE_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The child logs its actual listen address (it binds port 0); everything
	// after that is drained so the child never blocks on a full pipe.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listeningLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(60 * time.Second):
		t.Fatal("child never logged its listen address")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("child never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Load it: sampled traces and journal events need real traffic.
	resp, err := http.Post(base+"/ingest?wait=1", "application/x-ndjson",
		strings.NewReader(ndjson(t, f.stream[:40])))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("child ingest: status %d (%s)", resp.StatusCode, body)
	}

	// ?wait=1 only means blocking submit: the bundle can only carry a sampled
	// trace once the merger has finalized one, so wait for /trace to show it.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(base + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		traces, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(traces) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never finalized a sampled trace")
		}
	}

	// The crash. SIGQUIT must dump a bundle and exit 2.
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if err == nil {
		t.Fatal("child exited 0 after SIGQUIT, want exit 2")
	} else if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("child exit after SIGQUIT: %v, want exit code 2", err)
	}

	bundles, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("flight dir holds %d bundles (%v), want 1", len(bundles), err)
	}
	if !strings.Contains(bundles[0], "sigquit") {
		t.Fatalf("bundle %s not named after the sigquit reason", bundles[0])
	}
	raw, err := os.ReadFile(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	var bundle obs.FlightBundle
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle not JSON: %v", err)
	}
	if bundle.Reason != "sigquit" {
		t.Fatalf("bundle reason %q, want sigquit", bundle.Reason)
	}
	if len(bundle.Events) == 0 {
		t.Fatal("bundle has no journal events (the serving event alone should be there)")
	}
	serving := false
	for _, ev := range bundle.Events {
		if ev.Type == "serving" {
			serving = true
		}
	}
	if !serving {
		t.Fatalf("bundle events missing the serving event: %+v", bundle.Events)
	}
	traces, ok := bundle.Traces.([]any)
	if !ok || len(traces) == 0 {
		t.Fatalf("bundle traces = %T with %d entries, want >= 1 sampled trace",
			bundle.Traces, len(traces))
	}
	if !strings.Contains(bundle.Metrics, "terids_arrivals_total") {
		t.Fatal("bundle metrics snapshot missing terids_arrivals_total")
	}
	if bundle.NumGoroutine <= 0 || !strings.Contains(bundle.Goroutines, "goroutine") {
		t.Fatal("bundle missing goroutine dump")
	}
	var stats map[string]any
	if len(bundle.Stats) > 0 {
		if err := json.Unmarshal(bundle.Stats, &stats); err != nil {
			t.Fatalf("bundle stats not JSON: %v", err)
		}
	}
	if fmt.Sprint(stats["shards"]) != "2" {
		t.Fatalf("bundle stats shards = %v, want 2", stats["shards"])
	}
}
