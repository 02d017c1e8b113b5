package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the load generator's only source of time, so the open-loop
// scheduler can be driven by a manual clock in tests.
type clock interface {
	// Now is the time since the clock's origin.
	Now() time.Duration
	// SleepUntil returns once Now() >= t.
	SleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.origin) }

// SleepUntil sleeps in the kernel, not in the Go runtime: time.Sleep parks
// the goroutine on the runtime's timer heap, and on two busy cores the
// wake-up (timer thread, then a free P, then this goroutine) measured a
// median 0.56 ms late; a nanosleep on the caller's own thread is woken by
// the kernel's timer directly.
func (c wallClock) SleepUntil(t time.Duration) {
	for {
		d := t - c.Now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// generator drives one server over exactly two connections: a writer that
// POSTs /ingest and a tail that reads /results?from=0, one line per arrival.
type generator struct {
	clk   clock
	base  string // http://host:port
	write *http.Client
	read  *http.Client

	// recv[seq] is when seq's result line was read. The tail goroutine
	// writes recv[seq] before publishing got = seq+1, so any goroutine that
	// has observed got > seq may read recv[seq].
	recv []time.Duration
	got  atomic.Int64
	// target and reached let a waiter sleep until got reaches a count
	// without polling: the tail posts a token whenever got >= target.
	target  atomic.Int64
	reached chan struct{}
	// keep is how many leading result lines are retained verbatim for the
	// verify lap; kept holds them.
	keep int
	kept [][]byte

	// seqErrors counts result lines whose seq was not the previous plus one
	// (missing, duplicate, or out of order); rejected counts lines the
	// engine flagged as rejected arrivals.
	seqErrors atomic.Int64
	rejected  atomic.Int64
	// refused counts ingest lines that did not get a 200.
	refused int

	tailBody io.Closer
	tailDone chan struct{}
	tailErr  error
}

// newGenerator opens the tail and returns once it is streaming. capacity is
// the total number of arrivals the run will send.
func newGenerator(clk clock, base string, capacity, keep int) (*generator, error) {
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	g := &generator{
		clk: clk, base: base, write: one(), read: one(),
		recv:     make([]time.Duration, capacity),
		reached:  make(chan struct{}, 1),
		keep:     keep,
		tailDone: make(chan struct{}),
	}
	resp, err := g.read.Get(base + "/results?from=0")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /results?from=0: %s", resp.Status)
	}
	g.tailBody = resp.Body
	go g.tail(resp.Body)
	return g, nil
}

// close hangs up both connections and waits for the tail goroutine.
func (g *generator) close() {
	g.tailBody.Close()
	<-g.tailDone
	g.write.CloseIdleConnections()
	g.read.CloseIdleConnections()
}

var (
	seqPrefix    = []byte(`{"seq":`)
	rejectedFlag = []byte(`"rejected":true`)
)

// lineSeq extracts seq from a /results line without a full JSON decode: the
// tail shares two cores with the server it is measuring.
func lineSeq(line []byte) (int64, bool) {
	if !bytes.HasPrefix(line, seqPrefix) {
		return 0, false
	}
	rest := line[len(seqPrefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return n, err == nil
}

func (g *generator) tail(body io.Reader) {
	defer close(g.tailDone)
	br := bufio.NewReaderSize(body, 256<<10)
	next := int64(0)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			g.tailErr = err
			return
		}
		now := g.clk.Now()
		seq, ok := lineSeq(line)
		if !ok || seq != next {
			g.seqErrors.Add(1)
		}
		if ok {
			next = seq + 1
			if seq >= 0 && seq < int64(len(g.recv)) {
				g.recv[seq] = now
			}
		}
		if bytes.Contains(line, rejectedFlag) {
			g.rejected.Add(1)
		}
		if len(g.kept) < g.keep {
			g.kept = append(g.kept, line)
		}
		if n := g.got.Add(1); n >= g.target.Load() {
			select {
			case g.reached <- struct{}{}:
			default:
			}
		}
	}
}

// await blocks until n result lines have been read.
func (g *generator) await(n int, timeout time.Duration) error {
	g.target.Store(int64(n))
	expire := time.NewTimer(timeout)
	defer expire.Stop()
	for g.got.Load() < int64(n) {
		select {
		case <-g.reached:
		case <-g.tailDone:
			return fmt.Errorf("results tail ended after %d of %d lines: %v", g.got.Load(), n, g.tailErr)
		case <-expire.C:
			return fmt.Errorf("timed out after %s waiting for result %d (have %d)", timeout, n, g.got.Load())
		}
	}
	return nil
}

// post sends one pre-encoded batch of lines and counts the lines that were
// not accepted with a 200.
func (g *generator) post(body []byte, lines int) error {
	resp, err := g.write.Post(g.base+"/ingest?wait=1", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	var reply struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	g.refused += lines - reply.Accepted
	return nil
}

// closedLoop POSTs the batches back to back — the next departs when the
// previous is acknowledged — and returns when it started; the caller awaits
// the drain.
func (g *generator) closedLoop(bodies [][]byte, batch int) (start time.Duration, err error) {
	start = g.clk.Now()
	for _, b := range bodies {
		if err := g.post(b, batch); err != nil {
			return start, err
		}
	}
	return start, nil
}

// openLoopTrace is what the open-loop phase records per batch.
type openLoopTrace struct {
	Sched  []time.Duration // scheduled departure
	Depart []time.Duration // actual departure
	Ack    []time.Duration // POST reply read
	// Backlog is arrivals sent minus results read, sampled at departure.
	Backlog []int
}

// openLoop sends batch b at start + b*interval whatever the server does: a
// slow reply delays the departures behind it (there is one writer
// connection), but never their scheduled times, and latency is later taken
// from the scheduled time — so a stall is charged to every arrival that
// queued behind it, not only to the one that saw it. first is the sequence
// number of the phase's first arrival.
func (g *generator) openLoop(bodies [][]byte, batch int, rate float64, first int) (openLoopTrace, error) {
	n := len(bodies)
	tr := openLoopTrace{
		Sched:   make([]time.Duration, n),
		Depart:  make([]time.Duration, n),
		Ack:     make([]time.Duration, n),
		Backlog: make([]int, n),
	}
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	start := g.clk.Now() + time.Millisecond
	for b, body := range bodies {
		tr.Sched[b] = start + time.Duration(b)*interval
		g.clk.SleepUntil(tr.Sched[b])
		tr.Depart[b] = g.clk.Now()
		tr.Backlog[b] = first + b*batch - int(g.got.Load())
		if err := g.post(body, batch); err != nil {
			return tr, err
		}
		tr.Ack[b] = g.clk.Now()
	}
	return tr, nil
}

// latencies returns, for the phase whose first arrival is first, each
// arrival's result-read time minus its batch's scheduled departure. The
// caller must have awaited the phase's last result.
func (g *generator) latencies(tr openLoopTrace, batch, first int) []time.Duration {
	out := make([]time.Duration, len(tr.Sched)*batch)
	for i := range out {
		out[i] = g.recv[first+i] - tr.Sched[i/batch]
	}
	return out
}
