// Package pivot implements the cost-model-based pivot tuple selection of
// Section 5.4 and Appendix B: per attribute, pick the domain value whose
// converted-distance histogram has maximal Shannon entropy (Equation 5),
// adding auxiliary pivots greedily until the joint entropy reaches eMin or
// cntMax pivots are used.
package pivot

import (
	"fmt"
	"math"
	"slices"

	"terids/internal/repository"
	"terids/internal/tokens"
)

// Config tunes the selection cost model.
type Config struct {
	// Buckets is P, the number of equal-length sub-intervals of the
	// converted space [0,1] (Appendix C.1 uses P = 10). At most 256.
	Buckets int
	// MinEntropy is eMin, the target Shannon entropy in nats (Appendix C.1
	// uses 1.5).
	MinEntropy float64
	// CntMax is the maximal number of attribute pivots per attribute
	// (Figure 11(b) varies it in [1,5]).
	CntMax int
}

// maxBuckets bounds Config.Buckets: bucket ids are stored as bytes.
const maxBuckets = 256

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

// bucket is the id of the equal-width bin of [0,1] that dist falls in.
func bucket(dist float64, buckets int) int {
	b := int(dist * float64(buckets))
	if b >= buckets {
		b = buckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Entropy computes the Shannon entropy (Equation 5, natural log) of the
// histogram of values over buckets equal-width bins of [0,1].
func Entropy(values []float64, buckets int) float64 {
	if len(values) == 0 || buckets <= 0 {
		return 0
	}
	hist := make([]int, buckets)
	for _, v := range values {
		hist[bucket(v, buckets)]++
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

// Select chooses pivots for every attribute of the repository per the cost
// model. It fails on an empty repository and on more than 256 buckets.
//
//terids:deterministic
func Select(repo *repository.Repository, cfg Config) (*Selection, error) {
	cfg.fill()
	if repo.Len() == 0 {
		return nil, fmt.Errorf("pivot: cannot select pivots from an empty repository")
	}
	if cfg.Buckets > maxBuckets {
		return nil, fmt.Errorf("pivot: %d buckets, at most %d", cfg.Buckets, maxBuckets)
	}
	d := repo.Schema().D()
	sel := &Selection{PerAttr: make([]AttrPivots, d)}
	for x := 0; x < d; x++ {
		sel.PerAttr[x] = selectAttr(repo.Domain(x), repo.Len(), x, cfg)
	}
	return sel, nil
}

// selectAttr runs the greedy of Appendix B over dom(A_x). A sample's
// distance to a candidate depends only on the sample's value, so every
// histogram is built over the distinct values, each counted Freq times: the
// same integer counts as one entry per sample of R.
func selectAttr(dom *repository.Domain, n, x int, cfg Config) AttrPivots {
	nv, nb := dom.Len(), cfg.Buckets
	tab := bucketTable(dom, nb)
	freq := make([]int, nv)
	for v := range freq {
		freq[v] = dom.Value(v).Freq
	}
	h := newJointHist(n, nv, nb)

	// Greedy: the first pivot maximises the marginal entropy, each further
	// one the joint entropy of the chosen set plus itself. Ties go to the
	// lowest domain index.
	chosen := make([]int, 0, cfg.CntMax)
	best := 0.0
	for len(chosen) < cfg.CntMax {
		bestC, bestH := -1, -1.0
		for c := 0; c < nv; c++ {
			if slices.Contains(chosen, c) {
				continue
			}
			if e := h.entropy(tab[c*nv:(c+1)*nv], freq); e > bestH {
				bestH, bestC = e, c
			}
		}
		if bestC == -1 || (len(chosen) > 0 && bestH <= best+1e-12) {
			break // no candidate improves the joint entropy
		}
		chosen = append(chosen, bestC)
		h.refine(tab[bestC*nv : (bestC+1)*nv])
		best = bestH
		if best >= cfg.MinEntropy {
			break
		}
	}

	out := AttrPivots{Attr: x, Entropy: best}
	for _, c := range chosen {
		v := dom.Value(c)
		out.Texts = append(out.Texts, v.Text)
		out.Toks = append(out.Toks, v.Toks)
	}
	return out
}

// bucketTable returns the |dom| × |dom| table of bucket ids whose entry
// c·|dom| + v is the bucket of the distance between values c and v. Jaccard
// is a ratio of integer counts, so it is exactly symmetric: each distance is
// computed once and mirrored.
func bucketTable(dom *repository.Domain, buckets int) []byte {
	nv := dom.Len()
	tab := make([]byte, nv*nv)
	for c := 0; c < nv; c++ {
		tc := dom.Value(c).Toks
		for v := c; v < nv; v++ {
			b := byte(bucket(tokens.JaccardDistance(dom.Value(v).Toks, tc), buckets))
			tab[c*nv+v], tab[v*nv+c] = b, b
		}
	}
	return tab
}

// jointHist scores candidates against the partition of the domain that the
// pivots chosen so far induce: group[v] numbers value v's tuple of bucket
// ids, densely, so a candidate's joint cell is group·B + bucket and all
// cells fit in |dom|·B counters however many pivots are chosen.
type jointHist struct {
	n       float64
	buckets int
	group   []int
	cells   []int // zero between calls
	mult    []int // mult[k] = cells holding k samples; zero between calls
	counts  []int // the distinct k of one call
}

func newJointHist(n, nv, buckets int) *jointHist {
	return &jointHist{
		n:       float64(n),
		buckets: buckets,
		group:   make([]int, nv),
		cells:   make([]int, nv*buckets),
		mult:    make([]int, n+1),
	}
}

// entropy returns the joint Shannon entropy of the chosen pivots plus the
// candidate whose bucket column col is. It sums over count-of-counts in
// ascending count, so candidates with equal cell-count multisets score
// bit-equal entropies.
func (h *jointHist) entropy(col []byte, freq []int) float64 {
	for v, g := range h.group {
		h.cells[g*h.buckets+int(col[v])] += freq[v]
	}
	h.counts = h.counts[:0]
	for v, g := range h.group {
		cell := g*h.buckets + int(col[v])
		k := h.cells[cell]
		if k == 0 {
			continue // already collected
		}
		h.cells[cell] = 0
		if h.mult[k] == 0 {
			h.counts = append(h.counts, k)
		}
		h.mult[k]++
	}
	slices.Sort(h.counts)
	e := 0.0
	for _, k := range h.counts {
		p := float64(k) / h.n
		e -= float64(h.mult[k]) * (p * math.Log(p))
		h.mult[k] = 0
	}
	return e
}

// refine splits the groups by the buckets of a newly chosen pivot and
// renumbers them densely in first-seen order.
func (h *jointHist) refine(col []byte) {
	next := 0
	for v, g := range h.group {
		cell := g*h.buckets + int(col[v])
		if h.cells[cell] == 0 {
			next++
			h.cells[cell] = next
		}
		h.group[v] = h.cells[cell] - 1
	}
	clear(h.cells)
}
