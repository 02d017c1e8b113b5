// Package pivot implements the cost-model-based pivot tuple selection of
// Section 5.4 and Appendix B: per attribute, pick the domain value whose
// converted-distance histogram has maximal Shannon entropy (Equation 5),
// adding auxiliary pivots greedily until the joint entropy reaches eMin or
// cntMax pivots are used.
package pivot

import (
	"fmt"
	"math"
	"sort"

	"terids/internal/repository"
	"terids/internal/tokens"
)

// Config tunes the selection cost model.
type Config struct {
	// Buckets is P, the number of equal-length sub-intervals of the
	// converted space [0,1] (Appendix C.1 uses P = 10).
	Buckets int
	// MinEntropy is eMin, the target Shannon entropy in nats (Appendix C.1
	// uses 1.5).
	MinEntropy float64
	// CntMax is the maximal number of attribute pivots per attribute
	// (Figure 11(b) varies it in [1,5]).
	CntMax int
	// MaxCandidates caps the number of candidate pivot values examined per
	// attribute (0 = all of dom(A_x)); candidates are the most frequent
	// values. The paper scans the full domain; the cap exists for very
	// large repositories.
	MaxCandidates int
}

// Defaults returns the paper's Appendix C.1 settings.
func Defaults() Config {
	return Config{Buckets: 10, MinEntropy: 1.5, CntMax: 3}
}

func (c *Config) fill() {
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.MinEntropy <= 0 {
		c.MinEntropy = 1.5
	}
	if c.CntMax <= 0 {
		c.CntMax = 3
	}
}

// AttrPivots holds the selected pivots of one attribute: piv_1 (the main
// pivot used for the metric-space conversion) plus auxiliary pivots used in
// index aggregates.
type AttrPivots struct {
	Attr int
	// Texts[0] / Toks[0] is the main pivot; the rest are auxiliary.
	Texts []string
	Toks  []tokens.Set
	// Entropy is the joint Shannon entropy achieved by the selected set.
	Entropy float64
}

// Main returns the main pivot token set piv_1[A_x].
func (p *AttrPivots) Main() tokens.Set { return p.Toks[0] }

// NumPivots returns n_x, the number of selected attribute pivots.
func (p *AttrPivots) NumPivots() int { return len(p.Toks) }

// Aux returns auxiliary pivot a (a in [1, NumPivots()-1]).
func (p *AttrPivots) Aux(a int) tokens.Set { return p.Toks[a] }

// Selection is the per-attribute pivot choice for a schema.
type Selection struct {
	PerAttr []AttrPivots
}

// Main returns the main pivot of attribute x.
func (s *Selection) Main(x int) tokens.Set { return s.PerAttr[x].Main() }

// NumPivots returns n_x for attribute x.
func (s *Selection) NumPivots(x int) int { return s.PerAttr[x].NumPivots() }

// Convert maps a token set to its converted coordinate on attribute x:
// the Jaccard distance to the main pivot.
func (s *Selection) Convert(x int, toks tokens.Set) float64 {
	return tokens.JaccardDistance(toks, s.Main(x))
}

// Entropy computes the Shannon entropy (Equation 5, natural log) of the
// histogram of values over buckets equal-width bins of [0,1].
func Entropy(values []float64, buckets int) float64 {
	if len(values) == 0 || buckets <= 0 {
		return 0
	}
	hist := make([]int, buckets)
	for _, v := range values {
		b := int(v * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		hist[b]++
	}
	h := 0.0
	n := float64(len(values))
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h
}

// jointEntropy computes the Shannon entropy of the joint bucketization:
// each sample is assigned the tuple of its bucket ids under every pivot.
func jointEntropy(dists [][]float64, buckets int) float64 {
	if len(dists) == 0 || len(dists[0]) == 0 {
		return 0
	}
	n := len(dists[0])
	counts := make(map[string]int, n)
	key := make([]byte, len(dists))
	for i := 0; i < n; i++ {
		for p := range dists {
			b := int(dists[p][i] * float64(buckets))
			if b >= buckets {
				b = buckets - 1
			}
			if b < 0 {
				b = 0
			}
			key[p] = byte(b)
		}
		counts[string(key)]++
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log(p)
	}
	return h
}

// Select chooses pivots for every attribute of the repository per the cost
// model. It fails only on an empty repository.
func Select(repo *repository.Repository, cfg Config) (*Selection, error) {
	cfg.fill()
	if repo.Len() == 0 {
		return nil, fmt.Errorf("pivot: cannot select pivots from an empty repository")
	}
	d := repo.Schema().D()
	sel := &Selection{PerAttr: make([]AttrPivots, d)}
	for x := 0; x < d; x++ {
		sel.PerAttr[x] = selectAttr(repo, x, cfg)
	}
	return sel, nil
}

func selectAttr(repo *repository.Repository, x int, cfg Config) AttrPivots {
	dom := repo.Domain(x)
	cands := candidateIndexes(dom, cfg.MaxCandidates)
	samples := repo.Samples()

	// Distance matrix: distTo[ci][si] = dist(sample_si[A_x], candidate ci).
	distTo := make([][]float64, len(cands))
	for ci, vi := range cands {
		row := make([]float64, len(samples))
		toks := dom.Value(vi).Toks
		for si, s := range samples {
			row[si] = tokens.JaccardDistance(s.Tokens(x), toks)
		}
		distTo[ci] = row
	}

	// Greedy: first pivot maximizes marginal entropy; subsequent pivots
	// maximize joint entropy of the already-chosen set plus the candidate.
	chosen := make([]int, 0, cfg.CntMax)
	chosenDists := make([][]float64, 0, cfg.CntMax)
	best := 0.0
	for len(chosen) < cfg.CntMax {
		bestCi, bestH := -1, -1.0
		for ci := range cands {
			if contains(chosen, ci) {
				continue
			}
			h := jointEntropy(append(chosenDists, distTo[ci]), cfg.Buckets)
			if h > bestH {
				bestH, bestCi = h, ci
			}
		}
		if bestCi == -1 || (len(chosen) > 0 && bestH <= best+1e-12) {
			break // no candidate improves the joint entropy
		}
		chosen = append(chosen, bestCi)
		chosenDists = append(chosenDists, distTo[bestCi])
		best = bestH
		if best >= cfg.MinEntropy {
			break
		}
	}

	out := AttrPivots{Attr: x, Entropy: best}
	for _, ci := range chosen {
		v := dom.Value(cands[ci])
		out.Texts = append(out.Texts, v.Text)
		out.Toks = append(out.Toks, v.Toks)
	}
	return out
}

// candidateIndexes returns the domain value indexes to consider as pivots:
// all of them, or the maxCand most frequent (ties broken by text).
func candidateIndexes(dom *repository.Domain, maxCand int) []int {
	idx := make([]int, dom.Len())
	for i := range idx {
		idx[i] = i
	}
	if maxCand <= 0 || dom.Len() <= maxCand {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := dom.Value(idx[a]), dom.Value(idx[b])
		if va.Freq != vb.Freq {
			return va.Freq > vb.Freq
		}
		return va.Text < vb.Text
	})
	idx = idx[:maxCand]
	sort.Ints(idx)
	return idx
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
