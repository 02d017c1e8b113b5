// Package drindex implements the DR-index I_R of Section 5.1: given an
// incomplete tuple and CDD rules that apply to it, retrieve the repository
// samples satisfying each rule's determinant constraints (the sample-side
// check of Definition 3).
//
// The index is one set of token posting lists per attribute, cut by the
// prefix filter of set-similarity joins (AllPairs, PPJoin). Per attribute the
// tokens of R are ranked by (document frequency in R, text), and a token R
// lacks ranks before all of them, so the order is a function of token text,
// never of token ID. If J(r, s) ≥ t ≥ 0.5, then r and s share a token among
// the first |r| − ⌈t·|r|⌉ + 1 tokens of r and the first |s| − ⌈0.5·|s|⌉ + 1
// tokens of s. Each sample is therefore listed under that 0.5-prefix of its
// set, and a query probes its own t-prefix: t = 1 for a Const constraint
// (distance 0) and t = 1 − Max for an Interval constraint with Max ≤ 0.5. An
// empty set counts as a one-token set of its own, because J(∅, ∅) = 1: empty
// samples share one list per attribute.
//
// A list entry also records the size of the sample's set and the token's
// position in it, for PPJoin's positional filter: if the token at position i
// of the arrival's n tokens and position j of the sample's m tokens is the
// first the two sets share, they share at most 1 + min(n−i−1, m−j−1) tokens,
// and J ≥ t needs t/(1+t)·(n+m). A matching sample is met through that first
// shared token, which lies in both prefixes, so an entry that fails the bound
// is skipped.
//
// Both cuts and the positional bound give away 1e-9 before comparing, so none
// is stricter than exact arithmetic: a sample the float check accepts on an
// interval edge is never filtered out.
//
// A call marks, for every rule, the entries of the determinant with the
// shortest probe lists in a candidate bitset, then runs the exact check over
// the set bits in ascending ordinal order. It thus visits exactly what a scan
// of all of R visits, in the same order. A rule with no determinant that can
// filter (an Interval with Max > 0.5, or none at all) sends the call down
// that scan instead. Samples appended to R after Build (Section 5.5) are
// scanned after the candidates.
package drindex

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"

	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

const (
	// indexT is the similarity the posting lists are cut at: the least any
	// filtering constraint demands.
	indexT = 0.5
	// eps keeps every cut and bound at least as loose as exact arithmetic.
	eps = 1e-9
)

// prefixLen is the length of the prefix, in rank order, of an n-token set
// that shares a token with every set at Jaccard similarity ≥ t to it.
func prefixLen(n int, t float64) int {
	return n - int(math.Ceil(t*float64(n)-eps)) + 1
}

// threshold is the Jaccard similarity constraint c demands of a matching
// sample, and whether that is enough to filter by.
func threshold(c rules.Constraint) (float64, bool) {
	if c.Kind == rules.Const {
		return 1, true
	}
	return 1 - c.Max, c.Max <= 1-indexT
}

// Index is the DR-index I_R.
type Index struct {
	repo *repository.Repository
	// n is how many samples the lists cover: repo.Samples()[:n].
	n     int
	attrs []postings
}

// postings are one attribute's lists. ids are the tokens R holds on the
// attribute, ascending by ID, and rank[i] is the position of ids[i] in
// (document frequency, text) order. Rank len(ids) is the empty set. The list
// of rank k is entries[off[k]:off[k+1]], sample ordinals ascending.
type postings struct {
	ids, rank []uint32
	off       []uint32
	entries   []entry
}

// entry is one sample listed under a token: its ordinal, the size of its
// set, and the token's position in the set's rank order.
type entry struct {
	ord, size, at uint32
}

// Build returns the index over repo after checking that sel covers its
// schema. The keyword set is not used; the parameter is kept for
// benchmark/ until the next benchmark PR.
func Build(repo *repository.Repository, sel *pivot.Selection, _ tokens.Set) (*Index, error) {
	d := repo.Schema().D()
	if len(sel.PerAttr) != d {
		return nil, fmt.Errorf("drindex: selection has %d attributes, schema %d", len(sel.PerAttr), d)
	}
	samples := repo.Samples()
	ix := &Index{repo: repo, n: len(samples), attrs: make([]postings, d)}
	for x := range ix.attrs {
		ix.attrs[x] = buildPostings(samples, x)
	}
	return ix, nil
}

// buildPostings ranks the tokens samples hold on attribute x and lists every
// sample under the 0.5-prefix of its set.
func buildPostings(samples []*tuple.Record, x int) postings {
	df := map[uint32]int{}
	for _, s := range samples {
		for _, id := range s.Tokens(x) {
			df[id]++
		}
	}
	var p postings
	p.ids = slices.Sorted(maps.Keys(df))
	byRank := slices.SortedFunc(slices.Values(p.ids), func(a, b uint32) int {
		return cmp.Or(cmp.Compare(df[a], df[b]), strings.Compare(tokens.Text(a), tokens.Text(b)))
	})
	p.rank = make([]uint32, len(p.ids))
	for k, id := range byRank {
		i, _ := slices.BinarySearch(p.ids, id)
		p.rank[i] = uint32(k)
	}

	// Two passes: count each list's length, then fill the lists in
	// ordinal order.
	var pr probe
	var buf []uint32
	p.off = make([]uint32, len(p.ids)+2)
	for _, s := range samples {
		pr, buf = p.order(s.Tokens(x), buf[:0])
		for _, k := range pr.prefix(buf, indexT) {
			p.off[k+1]++
		}
	}
	for k := 1; k < len(p.off); k++ {
		p.off[k] += p.off[k-1]
	}
	p.entries = make([]entry, p.off[len(p.off)-1])
	next := slices.Clone(p.off)
	for o, s := range samples {
		pr, buf = p.order(s.Tokens(x), buf[:0])
		for at, k := range pr.prefix(buf, indexT) {
			p.entries[next[k]] = entry{ord: uint32(o), size: uint32(pr.size()), at: uint32(at)}
			next[k]++
		}
	}
	return p
}

// probe is a token set on one attribute in rank order: unknown tokens R
// lacks first, then the ranks of the others, ascending, which order keeps in
// buf[lo:hi] of the caller's buffer.
type probe struct {
	lo, hi  int
	unknown int
	done    bool
}

// size is the number of tokens, the empty set's one included.
func (pr probe) size() int { return pr.unknown + pr.hi - pr.lo }

// prefix returns the ranks among the first prefixLen(size, t) tokens.
func (pr probe) prefix(buf []uint32, t float64) []uint32 {
	k := prefixLen(pr.size(), t) - pr.unknown
	return buf[pr.lo : pr.lo+max(k, 0)]
}

// order returns set in rank order, with its ranks appended to buf, and the
// extended buf.
func (p *postings) order(set tokens.Set, buf []uint32) (probe, []uint32) {
	lo := len(buf)
	if len(set) == 0 {
		buf = append(buf, uint32(len(p.ids)))
	}
	for _, id := range set {
		if i, ok := slices.BinarySearch(p.ids, id); ok {
			buf = append(buf, p.rank[i])
		}
	}
	slices.Sort(buf[lo:])
	return probe{lo: lo, hi: len(buf), unknown: max(len(set)-(len(buf)-lo), 0), done: true}, buf
}

// cost is the number of entries listed under ranks.
func (p *postings) cost(ranks []uint32) int {
	n := 0
	for _, k := range ranks {
		n += int(p.off[k+1] - p.off[k])
	}
	return n
}

// mark sets the bit of every sample listed under pre, the t-prefix of pr,
// that passes the positional filter at t.
func (p *postings) mark(pr probe, pre []uint32, t float64, words []uint64) {
	n, f := pr.size(), t/(1+t)
	for i, k := range pre {
		rest := n - pr.unknown - i - 1 // tokens after this one in the arrival
		for _, e := range p.entries[p.off[k]:p.off[k+1]] {
			if float64(1+min(rest, int(e.size-e.at)-1)) >= f*float64(n+int(e.size))-eps {
				words[e.ord>>6] |= 1 << (e.ord & 63)
			}
		}
	}
}

// Len returns the number of samples in the repository, including any
// appended after Build.
func (ix *Index) Len() int { return ix.repo.Len() }

// QueryStats reports index work per MatchingSamplesMulti call. Verified
// counts the samples that got the exact check: the candidates plus the
// samples appended after Build, or all of R on the fallback scan.
// NodesVisited and NodesPruned always read 0 now that there is no tree; they
// are kept for benchmark/ until the next benchmark PR.
type QueryStats struct {
	NodesVisited int
	NodesPruned  int
	Verified     int
	Matched      int
}

const (
	// stackAttrs is the schema width up to which a call keeps its
	// per-attribute state on the stack.
	stackAttrs = 16
	// stackWords is the candidate bitset kept on the stack: up to 4 096
	// samples.
	stackWords = 64
	// stackRanks is how many arrival token ranks a call keeps on the stack.
	stackRanks = 256
)

// MatchingSamplesMulti retrieves the samples matching each of several rules
// with respect to r, visiting them in repo.Samples() order. visit receives
// the rule's index in rs; returning false stops everything.
//
//terids:hotpath
func (ix *Index) MatchingSamplesMulti(r *tuple.Record, rs []*rules.Rule, visit func(ruleIdx int, s *tuple.Record) bool) QueryStats {
	if len(rs) == 0 {
		return QueryStats{}
	}
	var distBuf [stackAttrs]float64
	var haveBuf [stackAttrs]bool
	var wordBuf [stackWords]uint64
	v := verifier{r: r, rs: rs, visit: visit, dists: distBuf[:], have: haveBuf[:]}
	if d := r.D(); d > stackAttrs {
		v.dists, v.have = make([]float64, d), make([]bool, d)
	} else {
		v.have = v.have[:d]
	}
	samples := ix.repo.Samples()
	tail := 0 // the first sample of the flat loop
	if words, ok := ix.candidates(r, rs, wordBuf[:]); ok {
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				if !v.check(samples[w<<6|bits.TrailingZeros64(word)]) {
					return v.stats
				}
			}
		}
		tail = ix.n
	}
	for _, s := range samples[tail:] {
		if !v.check(s) {
			return v.stats
		}
	}
	return v.stats
}

// candidates marks, for every rule, the entries of its filtering determinant
// with the shortest probe lists in a bitset over the covered ordinals, held
// in words when it fits. It reports false if some rule has no determinant
// that can filter.
func (ix *Index) candidates(r *tuple.Record, rs []*rules.Rule, words []uint64) ([]uint64, bool) {
	if nw := (ix.n + 63) >> 6; nw <= len(words) {
		words = words[:nw]
	} else {
		words = make([]uint64, nw)
	}
	var probeBuf [stackAttrs]probe
	var rankBuf [stackRanks]uint32
	probes, ranks := probeBuf[:], rankBuf[:0]
	if d := r.D(); d > stackAttrs {
		probes = make([]probe, d)
	}
	for _, rule := range rs {
		best, bestT, bestCost := -1, 0.0, 0
		for _, c := range rule.Determinants {
			t, ok := threshold(c)
			if !ok {
				continue
			}
			pr := &probes[c.Attr]
			if !pr.done {
				*pr, ranks = ix.attrs[c.Attr].order(r.Tokens(c.Attr), ranks)
			}
			if cost := ix.attrs[c.Attr].cost(pr.prefix(ranks, t)); best < 0 || cost < bestCost {
				best, bestT, bestCost = c.Attr, t, cost
			}
		}
		if best < 0 {
			return nil, false
		}
		pr := probes[best]
		ix.attrs[best].mark(pr, pr.prefix(ranks, bestT), bestT, words)
	}
	return words, true
}

// verifier is the exact per-sample check of one call.
type verifier struct {
	r     *tuple.Record
	rs    []*rules.Rule
	visit func(int, *tuple.Record) bool
	dists []float64
	have  []bool
	stats QueryStats
}

// check verifies sample s against every rule, computing dist(r[A_x], s[A_x])
// at most once per attribute: a constant constraint that survived
// AppliesTo(r) pins the value to r's, i.e. distance exactly 0; an interval
// constraint requires the distance in [Min, Max]. It reports whether visit
// let the call go on.
func (v *verifier) check(s *tuple.Record) bool {
	clear(v.have)
	v.stats.Verified++
	for i, rule := range v.rs {
		matched := true
		for _, c := range rule.Determinants {
			x := c.Attr
			if !v.have[x] {
				v.dists[x] = tokens.JaccardDistance(v.r.Tokens(x), s.Tokens(x))
				v.have[x] = true
			}
			switch c.Kind {
			case rules.Const:
				matched = v.dists[x] == 0
			case rules.Interval:
				matched = v.dists[x] >= c.Min && v.dists[x] <= c.Max
			}
			if !matched {
				break
			}
		}
		if matched {
			v.stats.Matched++
			if !v.visit(i, s) {
				return false
			}
		}
	}
	return true
}
