package core

import (
	"fmt"
	"time"

	"terids/internal/cddindex"
	"terids/internal/drindex"
	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Shared holds the offline pre-computation phase of Algorithm 1 (lines
// 1-4): pivot tuples, detected rule sets, and the imputation indexes. The
// same Shared state backs TER-iDS and all baselines so that comparisons
// isolate the online algorithms.
type Shared struct {
	Schema *tuple.Schema
	Repo   *repository.Repository
	// Sel is the cost-model-selected pivot set (Section 5.4).
	Sel *pivot.Selection
	// Rules is the banded CDD+DD+editing set TER-iDS imputes with.
	Rules *rules.Set
	// DDRules is the cumulative interval-only set of the DD+ER baseline.
	DDRules *rules.Set
	// EdRules is the editing-rule subset of the er+ER baseline.
	EdRules *rules.Set
	// Keywords is the query keyword set K as a token set. Its ID order is
	// private to this process; keyword i of a KW bit vector is the i-th of
	// Keywords.SortedByText().
	Keywords tokens.Set
	// DomIdx are per-attribute pivot-ordered domain indexes (accelerated
	// candidate range queries).
	DomIdx []*repository.Index
	// CDDIdx are the per-dependent-attribute CDD-indexes I_j.
	CDDIdx []*cddindex.Index
	// DRIdx is the DR-index I_R.
	DRIdx *drindex.Index

	// Offline timing of the pre-computation phase.
	PivotTime  time.Duration
	DetectTime time.Duration
	IndexTime  time.Duration
}

// PrepareConfig tunes the offline phase.
type PrepareConfig struct {
	Pivot  pivot.Config
	Detect rules.DetectConfig
	// Keywords is K; copied into Shared as a token set.
	Keywords []string
	// Selection, when non-nil, overrides cost-model pivot selection (used
	// by the pivot ablation study).
	Selection *pivot.Selection
}

// DefaultPrepareConfig mirrors the paper's offline settings.
func DefaultPrepareConfig(keywords []string) PrepareConfig {
	return PrepareConfig{
		Pivot:    pivot.Defaults(),
		Detect:   rules.DefaultDetectConfig(),
		Keywords: keywords,
	}
}

// Prepare runs the offline phase over repository R: pivot selection, rule
// detection (banded for TER-iDS, cumulative DDs and editing rules for the
// baselines), and index construction.
func Prepare(repo *repository.Repository, cfg PrepareConfig) (*Shared, error) {
	if repo.Len() == 0 {
		return nil, fmt.Errorf("core: empty repository; TER-iDS needs R for imputation")
	}
	sh := &Shared{
		Schema:   repo.Schema(),
		Repo:     repo,
		Keywords: tokens.New(cfg.Keywords...),
	}

	start := time.Now()
	if cfg.Selection != nil {
		sh.Sel = cfg.Selection
	} else {
		sel, err := pivot.Select(repo, cfg.Pivot)
		if err != nil {
			return nil, fmt.Errorf("core: pivot selection: %w", err)
		}
		sh.Sel = sel
	}
	sel := sh.Sel
	sh.PivotTime = time.Since(start)

	start = time.Now()
	sh.Rules = rules.Detect(repo, cfg.Detect)
	ddCfg := cfg.Detect
	ddCfg.Cumulative = true
	ddCfg.DisableCDD = true
	ddCfg.DisableEditing = true
	ddCfg.MaxDepWidth = cfg.Detect.MaxDepWidth * 1.5
	sh.DDRules = rules.Detect(repo, ddCfg)
	sh.EdRules = sh.Rules.Filter(rules.KindEditing)
	sh.DetectTime = time.Since(start)

	start = time.Now()
	d := sh.Schema.D()
	sh.DomIdx = make([]*repository.Index, d)
	for j := 0; j < d; j++ {
		sh.DomIdx[j] = repo.Domain(j).BuildIndex(sel.Main(j))
	}
	sh.CDDIdx = make([]*cddindex.Index, d)
	for j := 0; j < d; j++ {
		ix, err := cddindex.Build(sh.Rules, j, sel)
		if err != nil {
			return nil, fmt.Errorf("core: CDD-index for attribute %d: %w", j, err)
		}
		sh.CDDIdx[j] = ix
	}
	dr, err := drindex.Build(repo, sel, sh.Keywords)
	if err != nil {
		return nil, fmt.Errorf("core: DR-index: %w", err)
	}
	sh.DRIdx = dr
	sh.IndexTime = time.Since(start)
	return sh, nil
}

// NeighbourSets returns how many neighbour sets the domain indexes have
// memoised so far (the terids_domain_neighbour_sets gauge).
func (sh *Shared) NeighbourSets() int {
	n := 0
	for _, idx := range sh.DomIdx {
		n += idx.MemoisedSets()
	}
	return n
}

// AddSamples extends the repository with new complete samples and rebuilds
// the DR-index over it and the domain indexes, which discards the neighbour
// sets memoised over the old domains (the dynamic repository extension of
// Section 5.5). Rule sets and CDD-indexes are refreshed by re-detection when
// revalidate is true (the paper's delete-and-extend rule maintenance,
// applied as a batch).
func (sh *Shared) AddSamples(revalidate bool, detect rules.DetectConfig, samples ...*tuple.Record) error {
	if err := sh.Repo.Add(samples...); err != nil {
		return err
	}
	dr, err := drindex.Build(sh.Repo, sh.Sel, sh.Keywords)
	if err != nil {
		return err
	}
	sh.DRIdx = dr
	d := sh.Schema.D()
	for j := 0; j < d; j++ {
		sh.DomIdx[j] = sh.Repo.Domain(j).BuildIndex(sh.Sel.Main(j))
	}
	if revalidate {
		sh.Rules = rules.Detect(sh.Repo, detect)
		sh.EdRules = sh.Rules.Filter(rules.KindEditing)
		for j := 0; j < d; j++ {
			ix, err := cddindex.Build(sh.Rules, j, sh.Sel)
			if err != nil {
				return err
			}
			sh.CDDIdx[j] = ix
		}
	}
	return nil
}
