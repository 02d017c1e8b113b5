package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"terids/internal/core"
	"terids/internal/grid"
	"terids/internal/impute"
	"terids/internal/metrics"
	"terids/internal/prune"
	"terids/internal/rules"
	"terids/internal/stream"
	"terids/internal/tuple"
)

// pairOut is one emitted pair in the form the passes are compared in.
type pairOut struct {
	A, B string
	Prob float64
}

func pairsOut(ps []core.Pair) []pairOut {
	out := make([]pairOut, len(ps))
	for i, p := range ps {
		out[i] = pairOut{p.A.RID, p.B.RID, p.Prob}
	}
	return out
}

// processorRun is the single-threaded baseline: the untraced core.Processor
// over the same arrivals, advanced a chunk at a time so that it and the two
// traced passes take turns on the machine (see traceChunk).
type processorRun struct {
	proc          *core.Processor
	raw           [][]core.Pair
	ChunkWall     []time.Duration
	Allocs, Bytes uint64
}

func newProcessorRun(sh *core.Shared, cfg core.Config, n int) (*processorRun, error) {
	proc, err := core.NewProcessor(sh, cfg)
	if err != nil {
		return nil, err
	}
	return &processorRun{proc: proc, raw: make([][]core.Pair, 0, n)}, nil
}

func (p *processorRun) advance(recs []*tuple.Record) error {
	// Malloc counters are process-wide, so they are read around this
	// pass's own turn only.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, r := range recs {
		pairs, err := p.proc.Advance(r)
		if err != nil {
			return err
		}
		// Kept raw: converting to pairOut here would charge the comparison
		// to the operator.
		p.raw = append(p.raw, pairs)
	}
	p.ChunkWall = append(p.ChunkWall, time.Since(start))
	runtime.ReadMemStats(&m1)
	p.Allocs += m1.Mallocs - m0.Mallocs
	p.Bytes += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

func (p *processorRun) wall() (total time.Duration) {
	for _, d := range p.ChunkWall {
		total += d
	}
	return total
}

func (p *processorRun) pairs() [][]pairOut {
	out := make([][]pairOut, len(p.raw))
	for i := range p.raw {
		out[i] = pairsOut(p.raw[i])
	}
	return out
}

// tracedState is what both traced passes carry between chunks: the windows
// and grid core.Processor would own, the recorder, and the pairs emitted.
type tracedState struct {
	step *core.Step
	mw   *stream.MultiWindow
	g    *grid.Grid
	rec  *recorder
	out  [][]pairOut
}

func newTracedState(step *core.Step, n, spansPerArrival int) (*tracedState, error) {
	cfg := step.Config()
	mw, err := stream.NewMultiWindow(cfg.Streams, cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	g, err := step.NewGrid()
	if err != nil {
		return nil, err
	}
	return &tracedState{step: step, mw: mw, g: g, rec: newRecorder(n * spansPerArrival), out: make([][]pairOut, 0, n)}, nil
}

// passA drives the real core.Step the way core.Processor does, with a span
// around every Step call, window push and grid mutation.
type passA struct {
	*tracedState
	stat metrics.PruneStats
}

func (p *passA) advance(recs []*tuple.Record) error {
	step, mw, g, rec := p.step, p.mw, p.g, p.rec
	for _, r := range recs {
		rec.arrival = int32(len(p.out))
		rec.begin("arrival")

		rec.begin("stream.push")
		expired, err := mw.Push(r)
		rec.end()
		if err != nil {
			return err
		}
		if expired != nil {
			rec.begin("grid.remove")
			g.Remove(expired.RID)
			rec.end()
		}

		rec.begin("core.impute")
		im, _ := step.Impute(r)
		rec.end()

		rec.begin("core.profile")
		prof := step.Profile(im)
		rec.end()

		rec.begin("core.resolve")
		pairs := step.Resolve(g, prof, &p.stat)
		rec.end()

		rec.begin("grid.insert")
		err = g.Insert(&grid.Entry{Rec: r, Prof: prof})
		rec.end()
		if err != nil {
			return err
		}
		rec.end()
		p.out = append(p.out, pairsOut(pairs))
	}
	return nil
}

// layerCounts are the work counters pass B collects at the same boundaries
// its spans sit on, so every ratio is measured where the work happens.
type layerCounts struct {
	Arrivals int64

	CDDCalls, CDDRules, CDDVerified int64

	DRCalls, DRNodesVisited, DRNodesPruned, DRVerified, DRMatched int64

	DistCalls, DistCands int64

	GridCalls, GridCellsVisited, GridCellsPruned, GridEmitted, GridResidents int64

	metrics.PruneStats
	RefineCalls, RefinePairsChecked int64
}

// passB hand-drives every sub-layer through its public API in the order
// core.Step does — CDD-index rule selection, DR-index sample retrieval, the
// candidate accumulator, profile construction, grid candidate search, the
// Theorem 4.1-4.4 cascade and refinement — and must emit exactly pass A's
// pairs. If core.Step is ever restructured this mirror stops matching and
// the traced run fails, instead of its numbers quietly drifting.
type passB struct {
	*tracedState
	n         layerCounts
	survivors []*grid.Entry
}

func (p *passB) advance(recs []*tuple.Record) error {
	sh, cfg := p.step.Shared(), p.step.Config()
	if cfg.Ablate != (core.AblateConfig{}) || cfg.TrackPruning {
		return errors.New("pass B mirrors the unablated operator only")
	}
	mw, g, rec, n := p.mw, p.g, p.rec, &p.n
	survivors := p.survivors
	for _, r := range recs {
		n.Arrivals++
		rec.arrival = int32(len(p.out))
		rec.begin("arrival")

		rec.begin("stream.push")
		expired, err := mw.Push(r)
		rec.end()
		if err != nil {
			return err
		}
		if expired != nil {
			rec.begin("grid.remove")
			g.Remove(expired.RID)
			rec.end()
		}

		// core.Step.Impute.
		var im *tuple.Imputed
		if r.IsComplete() {
			rec.begin("tuple.from_complete")
			im = tuple.FromComplete(r)
			rec.end()
		} else {
			im = &tuple.Imputed{R: r, Dists: make([]tuple.AttrDist, r.D())}
			for j := 0; j < r.D(); j++ {
				if !r.IsMissing(j) {
					im.Dists[j] = tuple.Point(r.Value(j), r.Tokens(j))
					continue
				}
				rec.begin("cddindex.applicable")
				var applicable []*rules.Rule
				cs := sh.CDDIdx[j].Applicable(r, func(rule *rules.Rule) bool {
					applicable = append(applicable, rule)
					return true
				})
				rec.end()
				n.CDDCalls++
				n.CDDRules += int64(len(applicable))
				n.CDDVerified += int64(cs.Verified)

				// The accumulator's AddSample runs inside the DR-index's
				// visit callback and is charged to drindex.matching: a span
				// per matched sample would cost more than the call it times.
				dom := sh.Repo.Domain(j)
				rec.begin("drindex.matching")
				acc := impute.NewAccumulator(dom, sh.DomIdx[j])
				ds := sh.DRIdx.MatchingSamplesMulti(r, applicable, func(ri int, smp *tuple.Record) bool {
					acc.AddSample(dom.Lookup(smp.Value(j)), applicable[ri].DepMin, applicable[ri].DepMax)
					return true
				})
				rec.end()
				n.DRCalls++
				n.DRNodesVisited += int64(ds.NodesVisited)
				n.DRNodesPruned += int64(ds.NodesPruned)
				n.DRVerified += int64(ds.Verified)
				n.DRMatched += int64(ds.Matched)

				rec.begin("impute.distribution")
				im.Dists[j] = acc.Distribution(cfg.Impute)
				rec.end()
				n.DistCalls++
				n.DistCands += int64(len(im.Dists[j].Cands))
			}
		}

		// core.Step.Profile.
		rec.begin("prune.profile")
		q := prune.BuildProfile(im, sh.Sel, sh.Keywords)
		rec.end()

		// core.Step.Resolve.
		survivors = survivors[:0]
		n.GridResidents += int64(g.Len())
		rec.begin("grid.candidates")
		gs := g.Candidates(q, grid.Query{Gamma: cfg.Gamma}, func(e *grid.Entry) bool {
			survivors = append(survivors, e)
			return true
		})
		rec.end()
		n.GridCalls++
		n.GridCellsVisited += int64(gs.CellsVisited)
		n.GridCellsPruned += int64(gs.CellsPruned)
		n.GridEmitted += int64(gs.Emitted)

		var pairs []pairOut
		rec.begin("prune.cascade")
		slices.SortFunc(survivors, func(a, b *grid.Entry) int { return int(a.Ord() - b.Ord()) })
		n.Considered += int64(len(survivors))
		for _, e := range survivors {
			if prune.TopicPrune(q, e.Prof) {
				n.Topic++
				continue
			}
			if prune.SimPrune(q.Bounds, e.Prof.Bounds, cfg.Gamma) {
				n.SimUB++
				continue
			}
			if prune.ProbPrune(q, e.Prof, cfg.Gamma, cfg.Alpha) {
				n.ProbUB++
				continue
			}
			rec.begin("prune.refine")
			res := prune.Refine(q, e.Prof, cfg.Gamma, cfg.Alpha)
			rec.end()
			n.RefineCalls++
			n.RefinePairsChecked += int64(res.PairsChecked)
			if res.PrunedEarly {
				n.InstPair++
				continue
			}
			n.Refined++
			if res.Match {
				a, b := r.RID, e.Rec.RID
				if a > b {
					a, b = b, a
				}
				pairs = append(pairs, pairOut{a, b, res.Prob})
			}
		}
		rec.end()

		rec.begin("grid.insert")
		err = g.Insert(&grid.Entry{Rec: r, Prof: q})
		rec.end()
		if err != nil {
			return err
		}
		rec.end()
		p.out = append(p.out, pairs)
	}
	p.survivors = survivors[:0]
	return nil
}

// layerSelfByChunk sums, per chunk of chunk arrivals, the time pass B's
// layer spans cover: the durations of the root span's direct children,
// which is every layer's self time added up (a nested span's time is
// subtracted from its parent's self time and added back as its own).
func layerSelfByChunk(spans []span, chunk, chunks int) []time.Duration {
	out := make([]time.Duration, chunks)
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 {
			out[int(s.Arrival)/chunk] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// diffPairs counts the arrivals on which two passes emitted different pair
// lists (members, probability or order), and describes the first.
func diffPairs(a, b [][]pairOut) (n int, first string) {
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			if n == 0 {
				first = fmt.Sprintf("arrival %d: %v vs %v", i, a[i], b[i])
			}
			n++
		}
	}
	return n, first
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// rootByChunk sums, per chunk, the root ("arrival") spans: a traced pass's
// whole time for those arrivals, span bookkeeping included.
func rootByChunk(spans []span, chunk, chunks int) []time.Duration {
	out := make([]time.Duration, chunks)
	for _, s := range spans {
		if s.Parent < 0 {
			out[int(s.Arrival)/chunk] += time.Duration(s.End - s.Start)
		}
	}
	return out
}
