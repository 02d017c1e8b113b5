package main

import (
	"log"
	"runtime"
	"strconv"
	"time"

	"terids/internal/core"
	"terids/internal/engine"
	"terids/internal/obs"
	"terids/internal/snapshot"
)

// phase is where the server is in its lifecycle. Phases only move forward,
// in declaration order: a writer goes starting → recovering (with -wal-dir)
// → writing, a follower starting → catching up → following → writing (the
// last step is promotion, which may also come straight from catching up),
// and any phase ends in shutting down.
type phase int32

const (
	phaseStarting phase = iota
	phaseRecovering
	phaseCatchingUp
	phaseFollowing
	phaseWriting
	phaseShuttingDown
)

// String is the phase's name, which /readyz and the engine-backed endpoints
// return as their 503 body while the phase is not serving.
func (p phase) String() string {
	return [...]string{"starting", "recovering", "catching up", "following", "writing", "shutting down"}[p]
}

// serving reports whether the engine is attached and taking traffic.
func (p phase) serving() bool { return p == phaseFollowing || p == phaseWriting }

// followTick is how often the follower loop checks catch-up and writer
// liveness.
const followTick = 25 * time.Millisecond

// currentPhase loads the lifecycle phase.
func (s *server) currentPhase() phase { return phase(s.phase.Load()) }

// advance moves the lifecycle to p and reports whether it did. It is the
// only writer of the phase, and it never moves backwards, so a transition
// that lands late — a catch-up after a promotion, a promotion after
// shutdown began — is a no-op.
func (s *server) advance(p phase) bool {
	for {
		cur := s.phase.Load()
		if cur >= int32(p) {
			return false
		}
		if s.phase.CompareAndSwap(cur, int32(p)) {
			if s.onPhase != nil {
				s.onPhase(p)
			}
			return true
		}
	}
}

// shutdown enters the terminal phase, releases idle /results streams, and
// returns once the follower loop has exited.
func (s *server) shutdown() {
	if s.advance(phaseShuttingDown) {
		close(s.done)
	}
	s.loops.Wait()
}

// open boots the engine the config asks for — a follower over -follow, a
// recovered writer over -wal-dir, a plain engine otherwise, from ckpt when
// it is non-nil — attaches it, and walks the boot phases. A writer is
// writing when open returns; a follower is catching up, and its loop takes
// it from there.
func (s *server) open(sh *core.Shared, keywords []string, ckptPath string, ckpt *snapshot.Checkpoint) error {
	engCfg := engine.Config{
		Core:        s.cfg.core(sh.Schema.D(), keywords),
		Shards:      s.cfg.shards,
		QueueDepth:  s.cfg.queue,
		OnResult:    s.onResult,
		TraceSample: s.cfg.traceSample,
	}
	// One durability handle carries the directory from boot to Close: a
	// follower's flips to writing on promotion (the -checkpoint-* flags arm
	// its checkpointer then).
	dcfg := engine.DurableConfig{
		Dir: s.cfg.root(), CheckpointInterval: s.cfg.ckptInterval,
		KeepCheckpoints: s.cfg.ckptKeep, DeltaEvery: s.cfg.ckptDelta,
		Checkpoint: ckpt, CheckpointPath: ckptPath, Logf: log.Printf,
	}
	// /promote reads s.eng and s.dur under promoteMu and is not gated on
	// the phase, so they are attached under it; a promotion request that
	// arrives mid-boot waits for the handle.
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	start := time.Now()
	var err error
	switch {
	case s.cfg.follow != "":
		s.advance(phaseCatchingUp)
		s.dur, err = engine.OpenFollower(sh, engCfg, dcfg)
	case s.cfg.walDir != "":
		s.advance(phaseRecovering)
		s.dur, err = engine.OpenDurable(sh, engCfg, dcfg)
	default:
		s.eng, err = engine.NewFromSnapshot(sh, engCfg, ckpt) // nil ckpt: fresh engine
	}
	if err != nil {
		return err
	}
	if s.dur != nil {
		s.eng = s.dur.Eng
	}
	shards := s.eng.Stats().Shards
	s.reg.Gauge("terids_build_info",
		"Build and topology identity; the value is always 1.",
		obs.Labels{"version": version, "go_version": runtime.Version(), "shards": strconv.Itoa(shards)}).Set(1)

	if s.cfg.follow != "" {
		s.reg.GaugeFunc("terids_follower_lag",
			"Durable writer arrivals the follower's merged output still trails by.", nil,
			func() float64 { return float64(s.dur.Lag()) })
		log.Printf("follower: tailing %s from seq %d (writer alive: %v)",
			s.cfg.follow, s.dur.ResumeSeq(), s.dur.WriterAlive())
		log.Printf("serving reads on %s once caught up (%d shards, schema %v)", s.addr, shards, sh.Schema.Attrs())
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.follow()
		}()
		return nil
	}
	if s.cfg.walDir != "" {
		s.jr.Record("recovery", "durable state recovered", map[string]any{
			"wal_dir": s.cfg.walDir, "checkpoint": ckptPath,
			"resume_seq": s.dur.ResumeSeq(), "replayed": s.dur.Replayed(),
			"duration_ms": float64(time.Since(start).Microseconds()) / 1000,
		})
		log.Printf("durable: wal at %s, resumed at seq %d (%d arrivals replayed)",
			s.cfg.walDir, s.dur.ResumeSeq(), s.dur.Replayed())
	}
	// Recovery replay (if any) is done and the engine is attached.
	if s.advance(phaseWriting) {
		s.jr.Record("serving", "listener ready for traffic", map[string]any{"addr": s.addr, "shards": shards})
		log.Printf("serving on %s (%d shards, schema %v)", s.addr, shards, sh.Schema.Attrs())
	}
	return nil
}

// follow is the follower's one background loop. It flips catching up →
// following once the first tail pass has drained, and with
// -promote-on-writer-loss it promotes once the writer's liveness lock has
// been free that long; a failed promotion (the writer came back, or the
// takeover itself errored) restarts the grace clock and the replica keeps
// following. It exits on promotion or shutdown, and when there is nothing
// left to wait for.
func (s *server) follow() {
	grace := s.cfg.promoteOnWriterLoss
	tick := time.NewTicker(followTick)
	defer tick.Stop()
	var downSince time.Time
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		p := s.currentPhase()
		if p == phaseCatchingUp && s.dur.CaughtUp() && s.advance(phaseFollowing) {
			p = phaseFollowing
			s.jr.Record("serving", "follower caught up to the writer frontier", map[string]any{
				"addr": s.addr, "applied_seq": s.eng.Completed(),
			})
			log.Printf("follower caught up at seq %d; serving reads on %s", s.eng.Completed(), s.addr)
		}
		switch {
		case p != phaseCatchingUp && p != phaseFollowing, p == phaseFollowing && grace <= 0:
			return // promoted, shutting down, or nothing left to wait for
		case grace <= 0 || s.dur.WriterAlive():
			downSince = time.Time{}
			continue
		case downSince.IsZero():
			downSince = time.Now()
		}
		if time.Since(downSince) < grace {
			continue
		}
		s.promoteMu.Lock()
		var err error
		if s.dur.Following() {
			err = s.promote("writer-loss")
		}
		s.promoteMu.Unlock()
		if err != nil {
			log.Printf("auto-promote: %v (still following)", err)
			downSince = time.Time{}
			continue
		}
		log.Printf("writer lock free for %s: promoted to writer at seq %d", grace, s.dur.ResumeSeq())
		return
	}
}

// promote flips the follower handle to writing, under promoteMu (held by
// the caller). A promoted replica is serving by construction: Promote
// returns only after every durable arrival ran through the pipeline, so the
// replica IS the frontier now.
func (s *server) promote(trigger string) error {
	if err := s.dur.Promote(); err != nil {
		return err
	}
	if s.advance(phaseWriting) {
		s.jr.Record("promote", "follower took over as writer", map[string]any{
			"trigger": trigger, "resume_seq": s.dur.ResumeSeq(),
		})
	}
	return nil
}
