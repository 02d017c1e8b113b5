package core

import (
	"fmt"

	"terids/internal/grid"
	"terids/internal/impute"
	"terids/internal/metrics"
	"terids/internal/prune"
	"terids/internal/stream"
	"terids/internal/tuple"
)

// BaselineKind selects one of the Section 6.1 competitors.
type BaselineKind int

// The five baselines plus the straightforward reference method.
const (
	// IjGER is the indexed competitor: CDD-index rule selection, DR-index
	// sample retrieval, ER-grid resolution. One DR-index call for all of an
	// imputation's rules visits the same (rule, sample) pairs as one call
	// per rule, so Ij+GER runs core.Step — the TER-iDS code itself.
	IjGER BaselineKind = iota
	// CDDER imputes via CDD rules without any index, then resolves by
	// scanning the whole window.
	CDDER
	// DDER imputes via classic DD rules (cumulative intervals).
	DDER
	// ErER imputes via editing rules only.
	ErER
	// ConER imputes from the stream window itself (constraint-based).
	ConER
	// Naive is the straightforward method of Section 2.3: unindexed CDD
	// imputation plus exhaustive exact ER. Its result set is the ground
	// truth the optimized methods must reproduce.
	Naive
)

// String implements fmt.Stringer.
func (k BaselineKind) String() string {
	switch k {
	case IjGER:
		return "Ij+GER"
	case CDDER:
		return "CDD+ER"
	case DDER:
		return "DD+ER"
	case ErER:
		return "er+ER"
	case ConER:
		return "con+ER"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("BaselineKind(%d)", int(k))
	}
}

// Baseline is a Section 6.1 competitor: a pluggable imputer followed by a
// window-scan ER or, for Ij+GER, core.Step over its own ER-grid.
type Baseline struct {
	kind    BaselineKind
	sh      *Shared
	cfg     Config
	windows *stream.MultiWindow
	results *ResultSet

	// Ij+GER.
	step *Step
	g    *grid.Grid

	// The scanning baselines.
	imputer impute.Imputer
	// profiles holds the imputed profile of every live tuple.
	profiles map[string]*prune.Profile
	// order keeps live RIDs per stream for deterministic scans.
	order [][]string

	breakdown metrics.Breakdown
	pruneStat metrics.PruneStats
}

// NewBaseline constructs a competitor over the same Shared offline state as
// the TER-iDS processor.
func NewBaseline(sh *Shared, cfg Config, kind BaselineKind) (*Baseline, error) {
	if err := cfg.Validate(sh.Schema.D()); err != nil {
		return nil, err
	}
	mw, err := stream.NewMultiWindow(cfg.Streams, cfg.WindowSize)
	if err != nil {
		return nil, err
	}
	b := &Baseline{
		kind:     kind,
		sh:       sh,
		cfg:      cfg,
		windows:  mw,
		profiles: make(map[string]*prune.Profile),
		order:    make([][]string, cfg.Streams),
		results:  NewResultSet(),
	}
	switch kind {
	case IjGER:
		step, err := NewStep(sh, cfg)
		if err != nil {
			return nil, err
		}
		g, err := step.NewGrid()
		if err != nil {
			return nil, err
		}
		b.step, b.g = step, g
	case CDDER, Naive:
		b.imputer = impute.NewRuleImputer(kind.String(), sh.Repo, sh.Rules, cfg.Impute).
			WithBreakdown(&b.breakdown)
	case DDER:
		b.imputer = impute.NewRuleImputer("DD", sh.Repo, sh.DDRules, cfg.Impute).
			WithBreakdown(&b.breakdown)
	case ErER:
		b.imputer = impute.NewRuleImputer("er", sh.Repo, sh.EdRules, cfg.Impute).
			WithBreakdown(&b.breakdown)
	case ConER:
		b.imputer = impute.NewStreamImputer(b.windowSnapshot, cfg.Impute)
	default:
		return nil, fmt.Errorf("core: unknown baseline kind %d", kind)
	}
	return b, nil
}

func (b *Baseline) windowSnapshot() []*tuple.Record {
	var out []*tuple.Record
	b.windows.Each(func(r *tuple.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Name implements Resolver.
func (b *Baseline) Name() string { return b.kind.String() }

// Results implements Resolver.
func (b *Baseline) Results() *ResultSet { return b.results }

// Breakdown implements Resolver.
func (b *Baseline) Breakdown() metrics.Breakdown { return b.breakdown }

// PruneStats implements Resolver. Only Ij+GER prunes (through its grid); the
// scanning baselines count every live other-stream tuple as both considered
// and refined.
func (b *Baseline) PruneStats() metrics.PruneStats { return b.pruneStat }

// Advance implements Resolver.
func (b *Baseline) Advance(r *tuple.Record) ([]Pair, error) {
	if r.Schema() != b.sh.Schema {
		return nil, fmt.Errorf("core: record %s uses a foreign schema", r.RID)
	}
	expired, err := b.windows.Push(r)
	if err != nil {
		return nil, err
	}
	if expired != nil {
		if b.g != nil {
			b.g.Remove(expired.RID)
		} else {
			delete(b.profiles, expired.RID)
			b.dropFromOrder(expired)
		}
		b.results.RemoveRID(expired.RID)
	}

	var pairs []Pair
	var sw metrics.Stopwatch
	if b.step != nil {
		// Ij+GER: Step driven the way Processor drives it.
		im, bd := b.step.Impute(r)
		b.breakdown.Add(bd)
		sw.Start()
		prof := b.step.Profile(im)
		pairs = b.step.Resolve(b.g, prof, &b.pruneStat)
		if err := b.g.Insert(&grid.Entry{Rec: r, Prof: prof}); err != nil {
			return nil, err
		}
	} else {
		sw.Start()
		im := b.imputer.Impute(r)
		if b.kind == ConER {
			// The stream imputer cannot split select/impute phases itself.
			b.breakdown.Impute += sw.Lap()
		}
		sw.Start()
		prof := prune.BuildProfile(im, b.sh.Sel, b.sh.Keywords)
		pairs = b.resolveScan(prof)
		b.profiles[r.RID] = prof
		b.order[r.Stream] = append(b.order[r.Stream], r.RID)
	}
	b.breakdown.ER += sw.Lap()

	for _, p := range pairs {
		b.results.Add(p)
	}
	return pairs, nil
}

func (b *Baseline) dropFromOrder(r *tuple.Record) {
	lst := b.order[r.Stream]
	for i, rid := range lst {
		if rid == r.RID {
			b.order[r.Stream] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// resolveScan is the unindexed ER of the non-topic-aware baselines: every
// live other-stream tuple is checked with the exact Equation 2 probability
// over ALL instance pairs (full ER; topic filtering only decides what is
// reported, not what is computed) — the cost profile the paper attributes
// to CDD+ER, DD+ER, er+ER, and con+ER.
func (b *Baseline) resolveScan(q *prune.Profile) []Pair {
	var out []Pair
	qStream := q.Im.R.Stream
	for s := 0; s < b.cfg.Streams; s++ {
		if s == qStream {
			continue
		}
		for _, rid := range b.order[s] {
			prof := b.profiles[rid]
			b.pruneStat.Considered++
			b.pruneStat.Refined++
			p := prune.ExactProbabilityFullER(q, prof, b.cfg.Gamma)
			if p > b.cfg.Alpha {
				out = append(out, newPair(q.Im.R, prof.Im.R, p))
			}
		}
	}
	return out
}
