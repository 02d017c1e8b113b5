package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// buildServer compiles cmd/terids-serve from the working directory (the
// repository root) into dir and returns the binary's path.
func buildServer(dir string) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "terids-serve")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(dir, "terids-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/terids-serve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/terids-serve: %w", err)
	}
	return bin, nil
}

// freeAddrs returns two different loopback addresses no one is listening on
// right now. Both are held open until both are chosen: asked one after the
// other, the kernel now and then hands the port it has just got back out
// again, and terids-serve refuses a debug address equal to its serving one.
func freeAddrs() (a, b string, err error) {
	var lns [2]net.Listener
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return "", "", err
		}
		defer lns[i].Close()
	}
	return lns[0].Addr().String(), lns[1].Addr().String(), nil
}

// server is one running terids-serve process.
type server struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	logPath   string
	exited    chan struct{} // closed once the process has been reaped
	// started is when the process was exec'd; setup is from then to the
	// first 200 from /readyz.
	started time.Time
	setup   time.Duration
}

// errExitedEarly is a server that died before it was ready.
var errExitedEarly = errors.New("terids-serve exited before becoming ready")

// startServer starts a server, once more if the first dies before it is
// ready: its ports are chosen before it binds them, and another socket on
// this machine can take one in between.
func startServer(bin string, w workload, walDir, logPath string) (*server, error) {
	s, err := startServerOnce(bin, w, walDir, logPath)
	if errors.Is(err, errExitedEarly) {
		fmt.Fprintln(os.Stderr, "benchmark:", err, "(starting it once more)")
		s, err = startServerOnce(bin, w, walDir, logPath)
	}
	return s, err
}

// startServerOnce execs bin and waits for /readyz. Its stderr goes to
// logPath, which is quoted back in the error when it dies before becoming
// ready.
func startServerOnce(bin string, w workload, walDir, logPath string) (*server, error) {
	addr, debugAddr, err := freeAddrs()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s := &server{addr: addr, debugAddr: debugAddr, logPath: logPath, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, w.serverArgs(addr, debugAddr, walDir)...)
	s.cmd.Stderr = logf
	// Should this process be killed mid-run, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a process we SIGKILL carries no news
		close(s.exited)
	}()
	// A throwaway client: the probe connection must not linger into the
	// timed phases, which promise exactly two connections.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := s.started.Add(120 * time.Second)
	for {
		resp, err := probe.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(s.started)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("%w:\n%s", errExitedEarly, tail(logPath, 2048))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("terids-serve not ready after 120s:\n%s", tail(logPath, 2048))
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the process and waits until it has been reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine: the wait below still returns
	<-s.exited
}

func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// cpuSeconds is the process's user+system CPU time so far, read from its
// CPU-time clock: nanosecond resolution, where /proc/<pid>/stat counts in
// 10 ms ticks — a tenth of what a slice costs.
func (s *server) cpuSeconds() (float64, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
	// posix-timers.h: the clock clock_getcpuclockid(3) returns.
	clockID := uintptr(^s.cmd.Process.Pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(cpu clock of pid %d): %w", s.cmd.Process.Pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// stolenTicks is how many clock ticks so far this machine's CPUs were
// runnable but the hypervisor ran something else: the eighth number on
// /proc/stat's first line.
func stolenTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// stolenMeter turns stolenTicks into laps. err is the first failed read;
// laps after it mean nothing.
type stolenMeter struct {
	last int64
	err  error
}

// lap returns the ticks stolen since the previous lap.
func (m *stolenMeter) lap() int64 {
	now, err := stolenTicks()
	if err != nil && m.err == nil {
		m.err = err
	}
	d := now - m.last
	m.last = now
	return d
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// awaitMerged polls /stats until the server has merged the results of want
// arrivals (replay.next_seq) and returns how long after exec that was, and
// the count it saw last. A recovering server answers /readyz once the last
// logged arrival is submitted to its pipeline, with most of the log still
// queued behind it; this is when it has actually got its state back.
func (s *server) awaitMerged(want int) (time.Duration, int, error) {
	var stats struct {
		Replay struct {
			NextSeq int `json:"next_seq"`
		} `json:"replay"`
	}
	for {
		if err := s.getJSON("http://"+s.addr+"/stats", &stats); err != nil {
			return 0, 0, err
		}
		since := time.Since(s.started)
		if got := stats.Replay.NextSeq; got >= want || since > drainTimeout {
			return since, got, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON fetches url over a connection of its own — the run promises the
// server under test exactly two, and these reads must not become a third
// that lingers — and decodes the reply into v.
func (s *server) getJSON(url string, v any) error {
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := probe.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memstats reads the server's cumulative malloc count and GC pause total
// from expvar on the debug listener.
func (s *server) memstats() (mallocs uint64, pauseNs uint64, err error) {
	var vars struct {
		Memstats struct {
			Mallocs      uint64
			PauseTotalNs uint64
		} `json:"memstats"`
	}
	err = s.getJSON("http://"+s.debugAddr+"/debug/vars", &vars)
	return vars.Memstats.Mallocs, vars.Memstats.PauseTotalNs, err
}
