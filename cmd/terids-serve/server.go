package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terids/internal/core"
	"terids/internal/engine"
	"terids/internal/obs"
	"terids/internal/snapshot"
	"terids/internal/tokens"
	"terids/internal/tuple"
	"terids/internal/wal"
)

// deepReplayWriteTimeout bounds each result write while a deep replay holds
// the server's single replay slot (see server.deepSem).
const deepReplayWriteTimeout = 30 * time.Second

// ringChunk bounds how many results one replay-ring read copies out under
// the ring's lock. The merger's Put runs on the hot path (OnResult), so a
// slow /results client draining a huge backlog must never pin the lock for
// the whole backlog — readers loop from their advanced cursor, and each
// read holds the lock O(ringChunk).
const ringChunk = 256

// server wires the engine into HTTP handlers, a live result broadcaster,
// and the bounded replay ring behind /results?from=.
type server struct {
	cfg    config
	eng    *engine.Engine
	schema *tuple.Schema
	// ring is the bounded replay buffer behind /results?from=: the last
	// -replay-buffer merged results, keyed by merge sequence.
	ring *obs.Ring[engine.Result]
	// addr is the listener's address, for log lines and journal events.
	addr string
	// done is closed on shutdown so idle /results streams and the follower
	// loop exit instead of pinning http.Server.Shutdown to its deadline;
	// loops tracks the follower loop so shutdown can wait for it.
	done  chan struct{}
	loops sync.WaitGroup
	// limiter, when non-nil, enforces the per-stream ingest rate (-rate-limit).
	limiter *rateLimiter
	// dur, when non-nil, is the durability handle: a writer's (-wal-dir), or
	// a follower's (-follow) until promotion flips it to writing. It carries
	// the role, its health shows up in /stats, and /results?from= cursors
	// below the ring are served by WAL-backed deep replay on either role
	// instead of a 410. Set with s.eng, before the phase starts serving.
	dur *engine.Durable
	// promoteMu serializes promotion attempts (manual POST /promote racing
	// the follower loop's writer-loss promotion). /promote is not gated on
	// the phase, so open also attaches s.eng and s.dur under it.
	promoteMu sync.Mutex
	// interner shares tokenizations across ingested records — stream values
	// repeat heavily, so this removes most per-record tokenize cost.
	interner *tuple.Interner
	// deepSem serializes deep replays: each one spins up a throwaway engine
	// and re-runs a WAL suffix, so concurrent requests queue here instead of
	// multiplying that cost.
	deepSem chan struct{}

	// reg is the metrics registry /metrics renders; started feeds
	// uptime_seconds. phase holds the lifecycle phase (lifecycle.go), moved
	// only by advance. The listener starts before the engine exists, so
	// every engine-backed handler is gated on a serving phase: the store of
	// s.eng happens before the phase advances to one, and handlers only
	// touch s.eng after observing it — that atomic pair is the
	// happens-before edge making the late attach race-free. onPhase, when
	// set, observes every transition.
	reg     *obs.Registry
	started time.Time
	phase   atomic.Int32
	onPhase func(phase)

	// jr is the lifecycle event journal behind GET /events; slo, when
	// non-nil, serves GET /slo; flight, when non-nil and configured with a
	// directory, backs POST /debug/dump (and the SIGQUIT/panic paths in main).
	jr     *obs.Journal
	slo    *obs.SLOEngine
	flight *obs.Flight

	// throttleLast tracks each stream's last 429, so the journal records one
	// event per throttle episode instead of one per rejected line.
	throttleMu   sync.Mutex
	throttleLast map[int]time.Time

	mu          sync.Mutex
	subs        map[chan engine.Result]struct{}
	dropped     atomic.Int64
	autoSeq     atomic.Int64
	rateLimited atomic.Int64
}

// newServer builds the server shell over a validated config, its replay
// ring starting at ringBase; the engine is attached afterwards by open (its
// OnResult must point at s.onResult, which needs s to exist first).
func newServer(sh *core.Shared, cfg config, ringBase int64) *server {
	s := &server{
		cfg:          cfg,
		schema:       sh.Schema,
		ring:         obs.NewRing[engine.Result](cfg.replayBuffer, ringBase),
		done:         make(chan struct{}),
		limiter:      newRateLimiter(cfg.rateLimit, cfg.rateBurst),
		deepSem:      make(chan struct{}, 1),
		reg:          obs.Default(),
		started:      time.Now(),
		interner:     tuple.NewInterner(0),
		jr:           obs.DefaultJournal(),
		throttleLast: make(map[int]time.Time),
		subs:         make(map[chan engine.Result]struct{}),
	}
	s.reg.GaugeFunc("terids_uptime_seconds", "Seconds since this process started serving.", nil,
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.GaugeFunc("terids_token_dict_size", "Distinct tokens in the process-wide token dictionary (append-only).", nil,
		func() float64 { return float64(tokens.DictSize()) })
	s.reg.GaugeFunc("terids_domain_neighbour_sets", "Neighbour sets memoised by the repository's domain indexes (filled on first use; bounded by domain values x dependent intervals).", nil,
		func() float64 { return float64(sh.NeighbourSets()) })
	return s
}

// requireEngine gates an engine-backed handler on a serving phase: the
// listener comes up before the engine exists (so probes and diagnostics
// answer during a long recovery replay), and traffic gets a 503 naming the
// phase until open attaches the engine and the phase starts serving, and
// again once shutdown begins.
func (s *server) requireEngine(h http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		if p := s.currentPhase(); !p.serving() {
			http.Error(rw, p.String(), http.StatusServiceUnavailable)
			return
		}
		h(rw, req)
	}
}

// routes registers every endpoint. Engine-backed handlers are readiness-
// gated; observability endpoints (metrics, probes, events, slo, dump) answer
// from the moment the listener is up.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.requireEngine(s.handleIngest))
	mux.HandleFunc("GET /results", s.requireEngine(s.handleResults))
	mux.HandleFunc("GET /stats", s.requireEngine(s.handleStats))
	mux.HandleFunc("POST /snapshot", s.requireEngine(s.handleSnapshot))
	mux.HandleFunc("GET /trace", s.requireEngine(s.handleTrace))
	mux.Handle("GET /metrics", s.reg)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.requireEngine(s.handleReadyz))
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("POST /debug/dump", s.handleDump)
	// Promotion is deliberately NOT readiness-gated: a follower whose writer
	// died mid-catch-up must still be promotable (Promote itself replays the
	// un-tailed WAL remainder before taking over).
	mux.HandleFunc("POST /promote", s.handlePromote)
	return mux
}

// refuseOnFollower guards a write endpoint: a follower replica is read-only
// until promoted. Returns true when the 503 was written.
func (s *server) refuseOnFollower(rw http.ResponseWriter) bool {
	if s.currentPhase() != phaseFollowing {
		return false
	}
	http.Error(rw, "follower: read-only replica (POST /promote to take over)",
		http.StatusServiceUnavailable)
	return true
}

// handlePromote turns a follower replica into the writer: seal at the WAL
// frontier (refused while the old writer's liveness lock is held), replay
// the un-tailed remainder, attach the log, and reopen /ingest. Idempotent — repeating the POST reports the promoted state.
func (s *server) handlePromote(rw http.ResponseWriter, _ *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	var st engine.FollowerStats
	replica := false
	if s.dur != nil {
		st, replica = s.dur.FollowerStats()
	}
	if !replica {
		http.Error(rw, "not a follower replica (started without -follow)", http.StatusConflict)
		return
	}
	reply := map[string]any{"promoted": true}
	if st.Promoted {
		reply["already"] = true
	} else if err := s.promote("http"); errors.Is(err, wal.ErrLocked) {
		http.Error(rw, fmt.Sprintf("writer still alive: %v", err), http.StatusConflict)
		return
	} else if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	reply["resume_seq"] = s.dur.ResumeSeq()
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(reply)
}

// handleEvents serves the lifecycle event journal as NDJSON, oldest first.
// ?from=seq resumes from a cursor; an explicit cursor that has fallen off
// the journal's ring gets 410 Gone naming the oldest retained sequence —
// a resuming consumer must learn it has a gap, not silently skip it.
// Without ?from=, everything retained is served (there is no cursor to
// invalidate).
func (s *server) handleEvents(rw http.ResponseWriter, req *http.Request) {
	from := int64(0)
	if q := req.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			http.Error(rw, fmt.Sprintf("bad from=%q: non-negative integer required", q),
				http.StatusBadRequest)
			return
		}
		if oldest := s.jr.OldestSeq(); v < oldest {
			writeGone(rw, fmt.Sprintf("events before seq %d have been evicted from the journal ring", oldest), oldest)
			return
		}
		from = v
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.jr.WriteNDJSON(rw, from)
}

// handleSLO reports every objective's current value, burn rates, remaining
// error budget, and ok/warn/breach state as JSON.
func (s *server) handleSLO(rw http.ResponseWriter, _ *http.Request) {
	statuses := []obs.SLOStatus{}
	if s.slo != nil {
		statuses = s.slo.Status()
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(map[string]any{"objectives": statuses})
}

// handleDump triggers a flight-recorder bundle on demand and returns its
// path — the manual counterpart of the SIGQUIT and panic dumps.
func (s *server) handleDump(rw http.ResponseWriter, _ *http.Request) {
	if s.flight == nil || s.flight.Dir == "" {
		http.Error(rw, "flight recorder disabled (start with -flight-dir)", http.StatusNotFound)
		return
	}
	path, err := s.flight.Dump("http")
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(map[string]any{"path": path})
}

// handleTrace serves the sampled arrival timelines (oldest first) as NDJSON.
// Empty unless the server runs with -trace-sample.
func (s *server) handleTrace(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(rw)
	for _, tr := range s.eng.Traces() {
		if err := enc.Encode(tr); err != nil {
			return
		}
	}
}

// handleHealthz reports process liveness: 200 while the pipeline is intact
// (including the startup window before the engine exists — a process deep in
// recovery replay is alive, just not ready), 503 once the pipeline has
// failed or the server is shutting down.
func (s *server) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	p := s.currentPhase()
	if p == phaseShuttingDown {
		http.Error(rw, p.String(), http.StatusServiceUnavailable)
		return
	}
	// While starting, the engine may not be attached yet, so it must not be
	// touched — and a slow recovery is not a liveness failure.
	if p.serving() {
		if err := s.eng.Err(); err != nil {
			http.Error(rw, fmt.Sprintf("pipeline failed: %v", err), http.StatusServiceUnavailable)
			return
		}
	}
	rw.WriteHeader(http.StatusOK)
	fmt.Fprintln(rw, "ok")
}

// handleReadyz reports readiness to take traffic: behind requireEngine, a
// serving phase (recovery replay or follower catch-up finished, engine
// attached, not shutting down), then a healthy pipeline. The 503 body names
// why ("starting", "recovering", "catching up", "shutting down", or the
// pipeline failure).
func (s *server) handleReadyz(rw http.ResponseWriter, _ *http.Request) {
	if err := s.eng.Err(); err != nil {
		http.Error(rw, fmt.Sprintf("pipeline failed: %v", err), http.StatusServiceUnavailable)
		return
	}
	rw.WriteHeader(http.StatusOK)
	fmt.Fprintln(rw, "ready")
}

// arrival is one /ingest NDJSON line.
type arrival struct {
	RID    string   `json:"rid"`
	Stream int      `json:"stream"`
	Seq    *int64   `json:"seq,omitempty"`
	Values []string `json:"values"`
}

// resultLine is one /results NDJSON line.
type resultLine struct {
	Seq      int64      `json:"seq"`
	RID      string     `json:"rid"`
	Rejected bool       `json:"rejected,omitempty"`
	Expired  []string   `json:"expired,omitempty"`
	Pairs    []pairLine `json:"pairs"`
}

type pairLine struct {
	A    string  `json:"a"`
	B    string  `json:"b"`
	Prob float64 `json:"prob"`
}

func toLine(res engine.Result) resultLine {
	line := resultLine{Seq: res.Seq, RID: res.RID, Rejected: res.Rejected, Expired: res.Expired, Pairs: []pairLine{}}
	for _, p := range res.Pairs {
		line.Pairs = append(line.Pairs, pairLine{A: p.A.RID, B: p.B.RID, Prob: p.Prob})
	}
	return line
}

// onResult is the engine's result sink: retain for replay first, then fan
// out to live subscribers — the order /results?from= relies on to splice
// ring and live stream without a gap.
func (s *server) onResult(res engine.Result) {
	s.ring.Put(res.Seq, res)
	s.broadcast(res)
}

// broadcast fans one engine result out to all /results subscribers without
// ever blocking the merger: slow subscribers drop.
func (s *server) broadcast(res engine.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.subs {
		select {
		case ch <- res:
		default:
			s.dropped.Add(1)
		}
	}
}

func (s *server) subscribe() chan engine.Result {
	ch := make(chan engine.Result, 256)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	return ch
}

func (s *server) unsubscribe(ch chan engine.Result) {
	s.mu.Lock()
	delete(s.subs, ch)
	s.mu.Unlock()
}

// handleIngest parses NDJSON arrivals and submits them in request order,
// grouped into batches of cfg.ingestBatch records per engine submission
// (-ingest-batch; 1 = the old submit-per-line behavior). A batch is accepted
// or rejected atomically; "accepted" in the reply counts only submitted
// records, so after an error the client resumes from accepted+1.
func (s *server) handleIngest(rw http.ResponseWriter, req *http.Request) {
	if s.refuseOnFollower(rw) {
		return
	}
	wait := req.URL.Query().Get("wait") == "1"
	sc := bufio.NewScanner(req.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	accepted := 0
	lineNo := 0
	reply := func(status int, msg string) {
		rw.Header().Set("Content-Type", "application/json")
		if status == http.StatusTooManyRequests && rw.Header().Get("Retry-After") == "" {
			rw.Header().Set("Retry-After", "1")
		}
		rw.WriteHeader(status)
		_ = json.NewEncoder(rw).Encode(map[string]any{
			"accepted": accepted, "line": lineNo, "error": msg,
		})
	}
	batch := make([]*tuple.Record, 0, s.cfg.ingestBatch)
	batchStart := 0 // request line of the batch's first record
	flush := func() (status int, msg string) {
		if len(batch) == 0 {
			return 0, ""
		}
		var err error
		if wait {
			err = s.eng.SubmitBatch(batch)
		} else {
			err = s.eng.TrySubmitBatch(batch)
		}
		switch {
		case errors.Is(err, engine.ErrOverloaded):
			return http.StatusTooManyRequests, "ingest queue full"
		case errors.Is(err, engine.ErrInvalidRecord):
			return http.StatusBadRequest, fmt.Sprintf("lines %d-%d: %v", batchStart, lineNo, err)
		case err != nil:
			return http.StatusServiceUnavailable, err.Error()
		}
		accepted += len(batch)
		batch = batch[:0]
		return 0, ""
	}
	// fail flushes what parsed cleanly before the offending line (preserving
	// the submit-per-line contract that earlier valid lines are accepted),
	// then reports the line's own error — unless the flush itself failed.
	fail := func(status int, msg string) {
		if st, m := flush(); st != 0 {
			reply(st, m)
			return
		}
		reply(status, msg)
	}
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var a arrival
		if err := json.Unmarshal([]byte(raw), &a); err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: %v", lineNo, err))
			return
		}
		if a.RID == "" {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: missing rid", lineNo))
			return
		}
		// Stream ids are bounded before the limiter: it keys a bucket per
		// id, so on this unauthenticated endpoint random ids would otherwise
		// grow its map without bound.
		if a.Stream < 0 || a.Stream >= s.cfg.streams {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: stream %d outside [0,%d)", lineNo, a.Stream, s.cfg.streams))
			return
		}
		if ok, wait := s.limiter.allow(a.Stream); !ok {
			s.rateLimited.Add(1)
			s.reg.Counter("terids_ingest_throttled_total",
				"Ingest requests rejected by the per-stream rate limit.",
				obs.Labels{"stream": strconv.Itoa(a.Stream)}).Inc()
			s.noteThrottle(a.Stream, wait)
			rw.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
			fail(http.StatusTooManyRequests, fmt.Sprintf("line %d: stream %d over the ingest rate limit", lineNo, a.Stream))
			return
		}
		seq := s.autoSeq.Add(1)
		if a.Seq != nil {
			seq = *a.Seq
		}
		rec, err := s.interner.NewRecord(s.schema, a.RID, a.Stream, seq, a.Values)
		if err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: %v", lineNo, err))
			return
		}
		if len(batch) == 0 {
			batchStart = lineNo
		}
		batch = append(batch, rec)
		if len(batch) >= s.cfg.ingestBatch {
			if st, msg := flush(); st != 0 {
				reply(st, msg)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if st, msg := flush(); st != 0 {
		reply(st, msg)
		return
	}
	reply(http.StatusOK, "")
}

// throttleEpisodeGap separates distinct throttle episodes in the journal: a
// stream's repeated 429s within the gap extend one episode instead of
// producing one event per rejected line.
const throttleEpisodeGap = 5 * time.Second

// noteThrottle records a "throttle" journal event when a stream transitions
// into an over-limit episode.
func (s *server) noteThrottle(stream int, wait time.Duration) {
	now := time.Now()
	s.throttleMu.Lock()
	last, seen := s.throttleLast[stream]
	s.throttleLast[stream] = now
	s.throttleMu.Unlock()
	if seen && now.Sub(last) < throttleEpisodeGap {
		return
	}
	s.jr.Record("throttle", "stream over the ingest rate limit", map[string]any{
		"stream": stream, "retry_after_s": retryAfterSeconds(wait),
	})
}

// handleResults streams per-arrival results as NDJSON. Modes:
//
//	?snapshot=1  the current entity set, one JSON object
//	?from=seq    replay the merged results with sequence >= seq — from the
//	             in-memory ring when retained, regenerated byte-identically
//	             from checkpoint + WAL (deep replay; -wal-dir or -follow) when
//	             the cursor has fallen behind the ring — then continue live.
//	             410 Gone only when seq predates the retained durable
//	             coverage (oldest_retained names the reachable bound).
//	(default)    live results from now on
func (s *server) handleResults(rw http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("snapshot") == "1" {
		pairs := s.eng.ResultSet()
		out := make([]pairLine, 0, len(pairs))
		for _, p := range pairs {
			out = append(out, pairLine{A: p.A.RID, B: p.B.RID, Prob: p.Prob})
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(map[string]any{"live_pairs": out})
		return
	}
	replay := false
	var from int64
	if fromStr := req.URL.Query().Get("from"); fromStr != "" {
		v, err := strconv.ParseInt(fromStr, 10, 64)
		if err != nil || v < 0 {
			http.Error(rw, fmt.Sprintf("bad from=%q: non-negative integer required", fromStr),
				http.StatusBadRequest)
			return
		}
		replay, from = true, v
	}
	fl, ok := rw.(http.Flusher)
	if !ok {
		http.Error(rw, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the first ring read: onResult adds to the ring before
	// broadcasting, so a broadcast on the channel implies its result (and
	// everything before it) is readable from the ring.
	ch := s.subscribe()
	defer s.unsubscribe(ch)
	enc := json.NewEncoder(rw)
	if replay {
		// Ring-paced streaming: results are always read from the ring
		// (gapless by construction, in sequence order, never below the
		// cursor); the subscription only signals that new results exist.
		// Dropped broadcast signals are harmless — the drop implies the
		// channel holds 256 newer wake-ups, and every drain re-reads the
		// ring from the cursor. Cursors below the ring's tail fall through
		// to WAL-backed deep replay (-wal-dir or -follow), which regenerates
		// the gap and rejoins the ring; 410 is left for sequences below even
		// that coverage.
		cursor := from
		started := false
		for {
			past, oldest := s.ring.Since(cursor, ringChunk)
			if cursor < oldest {
				prev := cursor
				ok := s.deepReplay(rw, req, fl, enc, &cursor, &started, oldest)
				if !ok {
					// Response finished: 410/error written, or the stream
					// already started and cannot be spliced cleanly —
					// terminate; the client's re-request from its advanced
					// cursor resumes (or yields the 410).
					return
				}
				if cursor == prev {
					// Defensive: a successful replay that advanced nothing
					// would spin here forever.
					return
				}
				continue
			}
			if !started {
				started = true
				rw.Header().Set("Content-Type", "application/x-ndjson")
				rw.WriteHeader(http.StatusOK)
				fl.Flush()
			}
			if len(past) > 0 {
				for _, res := range past {
					if err := enc.Encode(toLine(res)); err != nil {
						return
					}
					cursor = res.Seq + 1
				}
				fl.Flush()
				// The chunked read may have more backlog: re-read before
				// waiting for a wake-up.
				continue
			}
			select {
			case <-ch:
				for { // drain pending wake-ups, then re-read the ring once
					select {
					case <-ch:
						continue
					default:
					}
					break
				}
			case <-req.Context().Done():
				return
			case <-s.done:
				return
			}
		}
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case res := <-ch:
			if err := enc.Encode(toLine(res)); err != nil {
				return
			}
			fl.Flush()
		case <-req.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

// replayReach is the oldest sequence a /results?from= cursor can still be
// served from: the durability layer's deep-replay reach when it extends
// below the ring, the ring's tail otherwise.
func (s *server) replayReach(ringOldest int64) int64 {
	if s.dur != nil {
		if reach, ok := s.dur.DeepReach(); ok && reach < ringOldest {
			return reach
		}
	}
	return ringOldest
}

// writeGone emits the 410 for a cursor that cannot be served, with the
// oldest sequence that would have worked.
func writeGone(rw http.ResponseWriter, msg string, oldest int64) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusGone)
	_ = json.NewEncoder(rw).Encode(map[string]any{
		"error":           msg,
		"oldest_retained": oldest,
	})
}

// deepReplay serves the [cursor, ring) gap by regenerating it from the
// durable state: the newest checkpoint at-or-below the cursor is restored
// into a throwaway engine and the WAL re-run through the normal pipeline,
// streaming byte-identical historical results until the cursor rejoins the
// live ring. Returns true when the caller should continue its ring loop from
// the advanced cursor; false when the response is finished (410 written,
// error, or mid-stream failure).
func (s *server) deepReplay(rw http.ResponseWriter, req *http.Request, fl http.Flusher,
	enc *json.Encoder, cursor *int64, started *bool, ringOldest int64) bool {
	dur := s.dur
	if dur == nil {
		if !*started {
			writeGone(rw, fmt.Sprintf("results before seq %d are no longer retained", ringOldest), ringOldest)
		}
		return false
	}
	select {
	case s.deepSem <- struct{}{}:
	case <-req.Context().Done():
		return false
	case <-s.done:
		return false
	}
	defer func() { <-s.deepSem }()

	// The semaphore is held for the whole regeneration, so a client that
	// stops reading must not pin it: each write carries a deadline, and a
	// stalled connection errors out of the replay instead of blocking every
	// other deep replay behind a dead peer. The deadline is cleared before
	// returning to normal (subscription-paced) streaming.
	rc := http.NewResponseController(rw)
	defer rc.SetWriteDeadline(time.Time{})

	start := *cursor
	joined, failed := false, false
	err := dur.DeepReplay(req.Context(), start, ringOldest, s.cfg.replayDepth, func(res engine.Result) bool {
		if joined || failed {
			return false
		}
		if !*started {
			*started = true
			rw.Header().Set("Content-Type", "application/x-ndjson")
			rw.WriteHeader(http.StatusOK)
		}
		_ = rc.SetWriteDeadline(time.Now().Add(deepReplayWriteTimeout))
		if err := enc.Encode(toLine(res)); err != nil {
			failed = true
			return false
		}
		*cursor = res.Seq + 1
		// Splice point: once the next sequence is inside the live ring, the
		// ring loop takes over — cheaper than regenerating what memory holds.
		if oldestNow, _ := s.ring.Window(); *cursor >= oldestNow {
			joined = true
			return false
		}
		return true
	})
	if failed {
		return false
	}
	if err != nil {
		if !*started {
			switch {
			case errors.Is(err, engine.ErrNoReplayCoverage):
				reach := s.replayReach(ringOldest)
				if reach <= start {
					// The advertised reach just failed to serve this very
					// cursor (e.g. the oldest retained checkpoint file is
					// unreadable); report the ring's tail — the oldest bound
					// that provably works — so clients don't retry a cursor
					// the server keeps naming and keeps refusing.
					reach = ringOldest
				}
				writeGone(rw, fmt.Sprintf("results before seq %d are no longer recoverable", reach), reach)
			case errors.Is(err, engine.ErrReplayDepthExceeded):
				writeGone(rw, err.Error(), s.replayReach(ringOldest))
			default:
				http.Error(rw, err.Error(), http.StatusInternalServerError)
			}
		}
		return false
	}
	if *started {
		fl.Flush()
	}
	return true
}

// handleSnapshot takes a barrier checkpoint of the running engine. With
// ?path=, the checkpoint is written server-side (atomically) and metadata
// returned; without, the binary checkpoint streams back as the body.
func (s *server) handleSnapshot(rw http.ResponseWriter, req *http.Request) {
	// Validate the destination before the barrier: a doomed request must
	// not get to pause intake and drain the pipeline first.
	var path string
	if name := req.URL.Query().Get("path"); name != "" {
		p, err := s.checkpointPath(name)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusForbidden)
			return
		}
		path = p
	}
	c, err := s.eng.Checkpoint()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if path != "" {
		if err := snapshot.WriteFile(path, c); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(map[string]any{
			"path": path, "seq": c.Seq, "residents": len(c.Residents), "pairs": len(c.Pairs),
		})
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename="terids-seq%d.ckpt"`, c.Seq))
	if err := snapshot.Encode(rw, c); err != nil {
		// Headers are gone; the truncated body fails the client's checksum.
		return
	}
}

// checkpointPath resolves a client-supplied checkpoint name inside the
// configured checkpoint directory, rejecting anything that would escape it.
func (s *server) checkpointPath(name string) (string, error) {
	if s.cfg.ckptDir == "" {
		return "", errors.New("server-side checkpoint writes disabled (start with -checkpoint-dir)")
	}
	if filepath.IsAbs(name) {
		return "", errors.New("checkpoint path must be relative to the checkpoint directory")
	}
	clean := filepath.Clean(name)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", errors.New("checkpoint path escapes the checkpoint directory")
	}
	return filepath.Join(s.cfg.ckptDir, clean), nil
}

// handleStats reports aggregated engine stats plus server-side counters,
// the /results replay retention window, and (when -wal-dir is set) the
// durability subsystem's health.
func (s *server) handleStats(rw http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	s.mu.Lock()
	nSubs := len(s.subs)
	s.mu.Unlock()
	topic, simUB, probUB, instPair, total := st.Totals.Prune.Power()
	oldest, next := s.ring.Window()
	replayStats := map[string]any{
		"oldest_retained": s.replayReach(oldest),
		"ring_oldest":     oldest,
		"next_seq":        next,
		"retained":        int(next - oldest),
		// Always present so scrapers get a stable schema; non-zero only with
		// -wal-dir or -follow, which deep replay requires.
		"deep_replays": int64(0),
	}
	payload := map[string]any{
		"engine": st,
		"breakdown": map[string]any{
			"select_ns": st.Totals.Breakdown.Select.Nanoseconds(),
			"impute_ns": st.Totals.Breakdown.Impute.Nanoseconds(),
			"er_ns":     st.Totals.Breakdown.ER.Nanoseconds(),
			"total_ns":  st.Totals.Breakdown.Total().Nanoseconds(),
		},
		"prune_power": map[string]float64{
			"topic": topic, "sim_ub": simUB, "prob_ub": probUB,
			"inst_pair": instPair, "total": total,
		},
		// oldest_retained is the oldest cursor /results?from= can serve —
		// through the in-memory ring or, with -wal-dir or -follow,
		// WAL-backed deep replay; ring_oldest is the in-memory window alone.
		"replay":          replayStats,
		"subscribers":     nSubs,
		"dropped_results": s.dropped.Load(),
		"rate_limited":    s.rateLimited.Load(),
		"uptime_seconds":  time.Since(s.started).Seconds(),
	}
	if s.dur != nil {
		durStats := s.dur.Stats()
		replayStats["deep_replays"] = durStats.DeepReplays
		if !s.dur.Following() {
			payload["durability"] = durStats
		}
		// Follower health: tail cursor, frontier, lag, catch-up counters,
		// writer liveness — still reported after promotion (Promoted=true).
		if st, ok := s.dur.FollowerStats(); ok {
			payload["follower"] = st
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(payload)
}
