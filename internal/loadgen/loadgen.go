// Package loadgen drives open-loop NDJSON ingest against a terids-serve
// instance with coordinated-omission-safe latency measurement.
//
// The scheduler derives every arrival's intended start time from the
// configured rate alone (phaseStart + i/rate) and workers record latency as
// completion − intended, never completion − send: when the server stalls,
// the arrivals queueing behind the stall keep their schedule-based
// timestamps, so the stall's full cost lands in the recorded distribution
// instead of being silently omitted (the classic coordinated-omission bug in
// closed-loop benchmarks).
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"terids/internal/obs"
)

// Arrival is one ingest line template. RIDs are suffixed with a global
// iteration counter at send time so repeated cycles stay unique.
type Arrival struct {
	RID    string
	Stream int
	Values []string
}

// Phase is one constant-rate segment of the schedule.
type Phase struct {
	Rate     float64       // arrivals per second
	Duration time.Duration // how long this segment runs
}

// Config parameterizes one load run.
type Config struct {
	BaseURL string
	Phases  []Phase
	Records []Arrival // cycled through; must be non-empty

	Workers int  // concurrent ingest connections (default 4)
	Batch   int  // arrivals per POST (default 32)
	Wait    bool // ?wait=1 blocking ingest instead of shedding 429s

	Followers   int           // concurrent live /results followers (read mix)
	ReplayEvery time.Duration // period between /results?from=0 deep-cursor reads (0 = off)
	// ReplicaURL, when set, aims the read mix (live followers and replay
	// reads) at a follower replica while ingest keeps hitting BaseURL —
	// the writer/replica split a scaled-out read path runs in production.
	ReplicaURL string

	Client *http.Client
	Logf   func(string, ...any)
}

// PhaseReport is one phase's slice of the run.
type PhaseReport struct {
	TargetRate   float64 `json:"target_rate"`
	DurationS    float64 `json:"duration_s"`
	Sent         int64   `json:"sent"`
	AchievedRate float64 `json:"achieved_rate"`
	P50NS        float64 `json:"p50_ns"`
	P99NS        float64 `json:"p99_ns"`
}

// Report is the run summary written to LOADGEN.json. Latency quantiles are
// coordinated-omission-safe: measured against each arrival's schedule-based
// intended start, not its actual send time.
type Report struct {
	TargetRate    float64       `json:"target_rate"`
	AchievedRate  float64       `json:"achieved_rate"`
	DurationS     float64       `json:"duration_s"`
	Sent          int64         `json:"sent"`
	Accepted      int64         `json:"accepted"`
	Errors        int64         `json:"errors"`
	Throttled429  int64         `json:"throttled_429"`
	P50NS         float64       `json:"p50_ns"`
	P95NS         float64       `json:"p95_ns"`
	P99NS         float64       `json:"p99_ns"`
	P999NS        float64       `json:"p999_ns"`
	FollowerLines int64         `json:"follower_lines"`
	ReplayReads   int64         `json:"deep_replay_reads"`
	Phases        []PhaseReport `json:"phases"`
}

// Thresholds gate a -check run; zero values disable the corresponding gate.
type Thresholds struct {
	MaxP99       time.Duration // recorded p99 must stay at or below
	MinRate      float64       // achieved accepted/sec must reach
	MaxErrorRate float64       // errors/sent must stay at or below
}

// Check returns an error naming every violated threshold.
func (r Report) Check(th Thresholds) error {
	var violations []string
	if th.MaxP99 > 0 && r.P99NS > float64(th.MaxP99) {
		violations = append(violations, fmt.Sprintf("p99 %.3fms exceeds %.3fms",
			r.P99NS/1e6, float64(th.MaxP99)/1e6))
	}
	if th.MinRate > 0 && r.AchievedRate < th.MinRate {
		violations = append(violations, fmt.Sprintf("achieved rate %.1f/s below %.1f/s",
			r.AchievedRate, th.MinRate))
	}
	if th.MaxErrorRate > 0 && r.Sent > 0 {
		if er := float64(r.Errors) / float64(r.Sent); er > th.MaxErrorRate {
			violations = append(violations, fmt.Sprintf("error rate %.4f exceeds %.4f",
				er, th.MaxErrorRate))
		}
	}
	if len(violations) > 0 {
		return errors.New("thresholds violated: " + strings.Join(violations, "; "))
	}
	return nil
}

// ParsePhases builds the schedule from either a single rate+duration or a
// stepped ramp spec "rate:duration,rate:duration,..." (e.g. "200:10s,400:20s").
func ParsePhases(rate float64, duration time.Duration, ramp string) ([]Phase, error) {
	if ramp == "" {
		if rate <= 0 || duration <= 0 {
			return nil, errors.New("loadgen: need -rate > 0 and -duration > 0 (or -ramp)")
		}
		return []Phase{{Rate: rate, Duration: duration}}, nil
	}
	var phases []Phase
	for _, step := range strings.Split(ramp, ",") {
		r, d, ok := strings.Cut(strings.TrimSpace(step), ":")
		if !ok {
			return nil, fmt.Errorf("loadgen: ramp step %q: want rate:duration", step)
		}
		rv, err := strconv.ParseFloat(r, 64)
		if err != nil || rv <= 0 {
			return nil, fmt.Errorf("loadgen: ramp step %q: bad rate %q", step, r)
		}
		dv, err := time.ParseDuration(d)
		if err != nil || dv <= 0 {
			return nil, fmt.Errorf("loadgen: ramp step %q: bad duration %q", step, d)
		}
		phases = append(phases, Phase{Rate: rv, Duration: dv})
	}
	return phases, nil
}

// job is one scheduled POST: the prebuilt NDJSON body plus each line's
// intended start timestamp.
type job struct {
	body     []byte
	intended []time.Time
	phase    int
}

// Run executes the schedule and returns the report. Cancelling ctx stops the
// run early; whatever was measured up to that point is still reported.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if len(cfg.Records) == 0 {
		return Report{}, errors.New("loadgen: no records to send")
	}
	if len(cfg.Phases) == 0 {
		return Report{}, errors.New("loadgen: no phases scheduled")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 32
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	reg := obs.NewRegistry()
	overall := reg.Histogram("loadgen_latency_seconds",
		"Coordinated-omission-safe ingest latency (completion minus intended start).", nil)
	phaseHists := make([]*obs.Histogram, len(cfg.Phases))
	for i := range cfg.Phases {
		phaseHists[i] = reg.Histogram("loadgen_phase_latency_seconds",
			"Per-phase CO-safe ingest latency.", obs.Labels{"phase": strconv.Itoa(i)})
	}

	var sent, accepted, errCount, throttled atomic.Int64
	var followerLines, replayReads atomic.Int64
	phaseSent := make([]atomic.Int64, len(cfg.Phases))

	ingestURL := cfg.BaseURL + "/ingest"
	if cfg.Wait {
		ingestURL += "?wait=1"
	}

	jobs := make(chan job, 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				resp, err := client.Post(ingestURL, "application/x-ndjson", bytes.NewReader(j.body))
				completion := time.Now()
				n := int64(len(j.intended))
				sent.Add(n)
				phaseSent[j.phase].Add(n)
				if err != nil {
					errCount.Add(n)
				} else {
					var out struct {
						Accepted int64 `json:"accepted"`
					}
					_ = json.NewDecoder(resp.Body).Decode(&out)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					accepted.Add(out.Accepted)
					switch {
					case resp.StatusCode == http.StatusTooManyRequests:
						throttled.Add(n - out.Accepted)
					case resp.StatusCode != http.StatusOK:
						errCount.Add(n - out.Accepted)
					}
				}
				// Every line is measured against its own schedule slot —
				// including lines the server shed or failed: the client paid
				// that time, so the distribution must contain it.
				for _, it := range j.intended {
					d := completion.Sub(it)
					overall.ObserveDuration(d)
					phaseHists[j.phase].ObserveDuration(d)
				}
			}
		}()
	}

	// Read mix: live followers tail /results for the whole run; the replay
	// reader periodically re-reads history from sequence zero, exercising the
	// ring (and deep replay on a durable server). With ReplicaURL the reads
	// go to the follower replica instead of the ingest target.
	readURL := cfg.BaseURL
	if cfg.ReplicaURL != "" {
		readURL = cfg.ReplicaURL
	}
	readCtx, stopReads := context.WithCancel(ctx)
	defer stopReads()
	var readWG sync.WaitGroup
	for f := 0; f < cfg.Followers; f++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			req, err := http.NewRequestWithContext(readCtx, "GET", readURL+"/results", nil)
			if err != nil {
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				followerLines.Add(1)
			}
		}()
	}
	if cfg.ReplayEvery > 0 {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			tick := time.NewTicker(cfg.ReplayEvery)
			defer tick.Stop()
			for {
				select {
				case <-readCtx.Done():
					return
				case <-tick.C:
				}
				// Bounded historical read: up to 500 lines from sequence 0,
				// then hang up — the point is to exercise the replay path,
				// not to keep a full follower open.
				func() {
					rctx, cancel := context.WithTimeout(readCtx, 10*time.Second)
					defer cancel()
					req, err := http.NewRequestWithContext(rctx, "GET", readURL+"/results?from=0", nil)
					if err != nil {
						return
					}
					resp, err := client.Do(req)
					if err != nil {
						return
					}
					defer resp.Body.Close()
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
					for lines := 0; lines < 500 && sc.Scan(); lines++ {
					}
					replayReads.Add(1)
				}()
			}
		}()
	}

	// The open-loop scheduler: arrival i of a phase is due at
	// phaseStart + i/rate, computed from the schedule — never from observed
	// progress. The enqueue may lag when workers fall behind (the channel
	// fills), but the intended timestamps do not move, so that lag is
	// measured rather than omitted.
	start := time.Now()
	seq := int64(0)
	var body bytes.Buffer
sched:
	for pi, ph := range cfg.Phases {
		phaseStart := time.Now()
		interval := time.Duration(float64(time.Second) / ph.Rate)
		total := int(ph.Rate * ph.Duration.Seconds())
		logf("phase %d: %d arrivals at %.1f/s over %s", pi, total, ph.Rate, ph.Duration)
		for i := 0; i < total; {
			n := batch
			if rem := total - i; rem < n {
				n = rem
			}
			body.Reset()
			intended := make([]time.Time, 0, n)
			for k := 0; k < n; k++ {
				rec := cfg.Records[int(seq)%len(cfg.Records)]
				line, err := json.Marshal(map[string]any{
					"rid":    fmt.Sprintf("%s~%d", rec.RID, seq),
					"stream": rec.Stream,
					"values": rec.Values,
				})
				if err != nil {
					return Report{}, err
				}
				body.Write(line)
				body.WriteByte('\n')
				intended = append(intended, phaseStart.Add(time.Duration(i+k)*interval))
				seq++
			}
			// A batch departs at its last member's slot: no line is sent
			// ahead of schedule, and the earlier members' in-batch wait is
			// charged to their own latency.
			due := intended[len(intended)-1]
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break sched
				}
			}
			j := job{body: bytes.Clone(body.Bytes()), intended: intended, phase: pi}
			select {
			case jobs <- j:
			case <-ctx.Done():
				break sched
			}
			i += n
		}
	}
	close(jobs)
	wg.Wait()
	stopReads()
	readWG.Wait()
	elapsed := time.Since(start)

	rep := Report{
		AchievedRate:  float64(accepted.Load()) / elapsed.Seconds(),
		DurationS:     elapsed.Seconds(),
		Sent:          sent.Load(),
		Accepted:      accepted.Load(),
		Errors:        errCount.Load(),
		Throttled429:  throttled.Load(),
		P50NS:         overall.Quantile(0.5),
		P95NS:         overall.Quantile(0.95),
		P99NS:         overall.Quantile(0.99),
		P999NS:        overall.Quantile(0.999),
		FollowerLines: followerLines.Load(),
		ReplayReads:   replayReads.Load(),
	}
	var scheduled, schedSecs float64
	for pi, ph := range cfg.Phases {
		scheduled += ph.Rate * ph.Duration.Seconds()
		schedSecs += ph.Duration.Seconds()
		pSent := phaseSent[pi].Load()
		pr := PhaseReport{
			TargetRate: ph.Rate,
			DurationS:  ph.Duration.Seconds(),
			Sent:       pSent,
			P50NS:      phaseHists[pi].Quantile(0.5),
			P99NS:      phaseHists[pi].Quantile(0.99),
		}
		if ph.Duration > 0 {
			pr.AchievedRate = float64(pSent) / ph.Duration.Seconds()
		}
		rep.Phases = append(rep.Phases, pr)
	}
	if schedSecs > 0 {
		rep.TargetRate = scheduled / schedSecs
	}
	return rep, ctx.Err()
}
