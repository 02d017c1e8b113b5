package rules

import (
	"math/rand"
	"slices"
	"sort"

	"terids/internal/repository"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// DetectConfig tunes the rule miner. The miner follows the detection recipe
// of Section 2.2: per dependent attribute, find determinant attributes whose
// value distances constrain the dependent distance (DDs, banded per the
// relaxed εmin of Definition 3); condition them on frequent constants of a
// third attribute (CDDs); and fall back to editing rules where intervals are
// too loose.
type DetectConfig struct {
	// Bands are the εmax breakpoints of the banded interval constraints;
	// band i is [Bands[i-1], Bands[i]] (band 0 starts at 0).
	Bands []float64
	// MaxDepWidth is the widest acceptable dependent interval A_j.I; wider
	// bands are rejected as uninformative (the "acceptable interval" test
	// of Section 2.2).
	MaxDepWidth float64
	// MinSupport is the minimum number of observed sample pairs that must
	// back a band for it to become a rule.
	MinSupport int
	// PairSample caps the number of sample pairs examined per attribute
	// pair (0 = all pairs; quadratic in |R|).
	PairSample int
	// MaxConstants caps the number of frequent conditioning constants per
	// attribute for CDD mining.
	MaxConstants int
	// EditingMaxDep is the dependent interval granted to editing rules
	// (exact-constant determinants); kept small since editing rules copy
	// values.
	EditingMaxDep float64
	// Seed drives pair sampling.
	Seed int64
	// Cumulative switches interval constraints from the paper's relaxed
	// banded form [ε_{i-1}, ε_i] to the classic DD form [0, ε_i] (Song &
	// Chen): wider intervals, more matching samples, looser dependent
	// bounds. The DD+ER baseline mines with Cumulative = true.
	Cumulative bool
	// DisableDD / DisableCDD / DisableEditing exclude a rule family from
	// mining.
	DisableDD      bool
	DisableCDD     bool
	DisableEditing bool
	// DisableTwoDet skips two-determinant interval rules (X = {x1, x2}),
	// the Level-2 lattice rules of Figure 2. Two-determinant mining uses
	// TwoDetBands (coarser than Bands to bound the rule count).
	DisableTwoDet bool
	// TwoDetBands are the band breakpoints for two-determinant rules
	// (default 0.1 steps to 0.5).
	TwoDetBands []float64
}

// DefaultDetectConfig mirrors the scale of rule detection reported by the
// paper — rule multiplicity is high ("2,500 detected CDD rules over only
// 600 tuples" on Cora), which is exactly what motivates the CDD-index.
func DefaultDetectConfig() DetectConfig {
	return DetectConfig{
		Bands:         []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5},
		MaxDepWidth:   0.6,
		MinSupport:    3,
		PairSample:    20000,
		MaxConstants:  16,
		EditingMaxDep: 0.1,
		Seed:          1,
	}
}

func (c *DetectConfig) fill() {
	if len(c.Bands) == 0 {
		c.Bands = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	sort.Float64s(c.Bands)
	if c.MaxDepWidth <= 0 {
		c.MaxDepWidth = 0.6
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 3
	}
	if c.MaxConstants <= 0 {
		c.MaxConstants = 8
	}
	if c.EditingMaxDep <= 0 {
		c.EditingMaxDep = 0.1
	}
	if len(c.TwoDetBands) == 0 {
		c.TwoDetBands = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	sort.Float64s(c.TwoDetBands)
}

// Detect mines DD, CDD, and editing rules from the repository.
//
//terids:deterministic
func Detect(repo *repository.Repository, cfg DetectConfig) *Set {
	cfg.fill()
	d := repo.Schema().D()
	set := NewSet(d)
	samples := repo.Samples()
	if len(samples) < 2 {
		return set
	}
	//lint:ignore nodeterm seeded source: one Seed always draws the same pairs
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := newPairTable(samples, samplePairs(len(samples), cfg.PairSample, rng), cfg.Bands)
	consts := make([]constants, d)
	for c := range consts {
		consts[c] = frequentConstants(repo.Domain(c), samples, c, cfg.MaxConstants)
	}

	for j := 0; j < d; j++ {
		for x := 0; x < d; x++ {
			if x == j {
				continue
			}
			if !cfg.DisableDD {
				mineDD(set, t, x, j, cfg)
			}
			if !cfg.DisableCDD {
				// Condition on each remaining attribute's frequent
				// constants.
				for c := 0; c < d; c++ {
					if c == j || c == x {
						continue
					}
					mineCDD(set, t, consts[c], c, x, j, cfg)
				}
			}
			if !cfg.DisableEditing {
				mineEditing(set, samples, consts[x], x, j, cfg)
			}
			// Two-determinant rules use banded intervals only; the
			// cumulative (classic DD) mode mines single determinants.
			if !cfg.DisableTwoDet && !cfg.Cumulative {
				for x2 := x + 1; x2 < d; x2++ {
					if x2 == j {
						continue
					}
					mineDD2(set, t, x, x2, j, cfg)
				}
			}
		}
	}
	return set
}

// pairTable holds the sampled pairs and every attribute distance of each:
// dist[p·d + x] is the Jaccard distance of pair p on attribute x, and
// band[p·d + x] its index in the single-determinant bands. The miners read
// it instead of recomputing a distance per rule family and attribute
// combination.
type pairTable struct {
	pairs [][2]int
	d     int
	dist  []float64
	band  []int32
}

func newPairTable(samples []*tuple.Record, pairs [][2]int, bands []float64) *pairTable {
	d := samples[0].D()
	t := &pairTable{pairs: pairs, d: d, dist: make([]float64, len(pairs)*d), band: make([]int32, len(pairs)*d)}
	for p, pr := range pairs {
		a, b := samples[pr[0]], samples[pr[1]]
		for x := 0; x < d; x++ {
			dist := tokens.JaccardDistance(a.Tokens(x), b.Tokens(x))
			t.dist[p*d+x], t.band[p*d+x] = dist, int32(band(dist, bands))
		}
	}
	return t
}

// samplePairs draws up to limit distinct unordered index pairs (all pairs
// when limit == 0 or the population is small).
func samplePairs(n, limit int, rng *rand.Rand) [][2]int {
	total := n * (n - 1) / 2
	if limit <= 0 || total <= limit {
		out := make([][2]int, 0, total)
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				out = append(out, [2]int{i, k})
			}
		}
		return out
	}
	seen := make(map[[2]int]bool, limit)
	out := make([][2]int, 0, limit)
	for len(out) < limit {
		//lint:ignore nodeterm seeded source: one Seed always draws the same pairs
		i, k := rng.Intn(n), rng.Intn(n)
		if i == k {
			continue
		}
		if i > k {
			i, k = k, i
		}
		p := [2]int{i, k}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// band returns the index of the band dist falls in, or -1 if beyond the
// last breakpoint.
func band(dist float64, bands []float64) int {
	for i, hi := range bands {
		if dist <= hi {
			return i
		}
	}
	return -1
}

// bandBounds returns [lo, hi] of band i.
func bandBounds(i int, bands []float64) (lo, hi float64) {
	if i == 0 {
		return 0, bands[0]
	}
	return bands[i-1], bands[i]
}

// depStats accumulates the dependent-distance interval and support of one
// band.
type depStats struct {
	lo, hi float64
	n      int
}

func newDepStats() depStats { return depStats{lo: 2, hi: -1} }

func (s *depStats) add(d float64) {
	if d < s.lo {
		s.lo = d
	}
	if d > s.hi {
		s.hi = d
	}
	s.n++
}

// mineDD emits banded DD rules A_x → A_j: for each distance band on A_x,
// the observed dependent-distance interval, if supported and tight enough.
func mineDD(set *Set, t *pairTable, x, j int, cfg DetectConfig) {
	stats := make([]depStats, len(cfg.Bands))
	for i := range stats {
		stats[i] = newDepStats()
	}
	for p := range t.pairs {
		bx := t.band[p*t.d+x]
		if bx < 0 {
			continue
		}
		stats[bx].add(t.dist[p*t.d+j])
	}
	if cfg.Cumulative {
		// Classic DDs: fold bands into prefix intervals [0, ε_i].
		for i := 1; i < len(stats); i++ {
			if stats[i-1].n == 0 {
				continue
			}
			if stats[i-1].lo < stats[i].lo {
				stats[i].lo = stats[i-1].lo
			}
			if stats[i-1].hi > stats[i].hi {
				stats[i].hi = stats[i-1].hi
			}
			stats[i].n += stats[i-1].n
		}
	}
	for i, st := range stats {
		if st.n < cfg.MinSupport || st.hi-st.lo > cfg.MaxDepWidth {
			continue
		}
		lo, hi := bandBounds(i, cfg.Bands)
		if cfg.Cumulative {
			lo = 0
		}
		set.MustAdd(&Rule{
			Kind:      KindDD,
			Dependent: j,
			Determinants: []Constraint{
				{Attr: x, Kind: Interval, Min: lo, Max: hi},
			},
			DepMin: st.lo,
			DepMax: st.hi,
		})
	}
}

// mineDD2 emits two-determinant banded rules X1X2 → A_j (the combined
// lattice rules of Figure 2): for every pair of coarse bands on A_x1 and
// A_x2, the observed dependent interval, if supported and tight enough.
// Combining determinants tightens dependent intervals and multiplies the
// rule count — the multiplicity that motivates the CDD-index.
func mineDD2(set *Set, t *pairTable, x1, x2, j int, cfg DetectConfig) {
	bands := cfg.TwoDetBands
	n := len(bands)
	stats := make([]depStats, n*n)
	for i := range stats {
		stats[i] = newDepStats()
	}
	for p := range t.pairs {
		row := t.dist[p*t.d : (p+1)*t.d]
		b1 := band(row[x1], bands)
		if b1 < 0 {
			continue
		}
		b2 := band(row[x2], bands)
		if b2 < 0 {
			continue
		}
		stats[b1*n+b2].add(row[j])
	}
	for b1 := 0; b1 < n; b1++ {
		for b2 := 0; b2 < n; b2++ {
			st := stats[b1*n+b2]
			if st.n < cfg.MinSupport || st.hi-st.lo > cfg.MaxDepWidth {
				continue
			}
			lo1, hi1 := bandBounds(b1, bands)
			lo2, hi2 := bandBounds(b2, bands)
			set.MustAdd(&Rule{
				Kind:      KindDD,
				Dependent: j,
				Determinants: []Constraint{
					{Attr: x1, Kind: Interval, Min: lo1, Max: hi1},
					{Attr: x2, Kind: Interval, Min: lo2, Max: hi2},
				},
				DepMin: st.lo,
				DepMax: st.hi,
			})
		}
	}
}

// mineCDD conditions the A_x → A_j bands on frequent constants of A_c,
// emitting rules (A_c, A_x → A_j, {v, [lo,hi], depI}) — the exact form of
// Example 2 / Definition 3 — in (constant, band) order.
func mineCDD(set *Set, t *pairTable, cons constants, c, x, j int, cfg DetectConfig) {
	if len(cons.texts) == 0 {
		return
	}
	nb := len(cfg.Bands)
	stats := make([]depStats, len(cons.texts)*nb)
	for i := range stats {
		stats[i] = newDepStats()
	}
	for p, pr := range t.pairs {
		// Both samples carry the same frequent constant of A_c.
		ci := cons.of[pr[0]]
		if ci < 0 || ci != cons.of[pr[1]] {
			continue
		}
		bx := int(t.band[p*t.d+x])
		if bx < 0 {
			continue
		}
		stats[ci*nb+bx].add(t.dist[p*t.d+j])
	}
	for k, st := range stats {
		if st.n < cfg.MinSupport || st.hi-st.lo > cfg.MaxDepWidth {
			continue
		}
		lo, hi := bandBounds(k%nb, cfg.Bands)
		text := cons.texts[k/nb]
		set.MustAdd(&Rule{
			Kind:      KindCDD,
			Dependent: j,
			Determinants: []Constraint{
				{Attr: c, Kind: Const, Value: text, Toks: tokens.Tokenize(text)},
				{Attr: x, Kind: Interval, Min: lo, Max: hi},
			},
			DepMin: st.lo,
			DepMax: st.hi,
		})
	}
}

// mineEditing emits editing rules: a constant determinant value that pins
// the dependent value to (near-)equality across its carriers.
func mineEditing(set *Set, samples []*tuple.Record, cons constants, x, j int, cfg DetectConfig) {
	for ci, v := range cons.texts {
		// Gather dependent values among carriers of v.
		var depToks []tokens.Set
		for i, s := range samples {
			if cons.of[i] == ci {
				depToks = append(depToks, s.Tokens(j))
			}
		}
		if len(depToks) < 2 {
			continue
		}
		// Editing rules demand (near-)agreement of the dependent values.
		agree := true
		for i := 1; i < len(depToks) && agree; i++ {
			if tokens.JaccardDistance(depToks[0], depToks[i]) > cfg.EditingMaxDep {
				agree = false
			}
		}
		if !agree {
			continue
		}
		set.MustAdd(&Rule{
			Kind:      KindEditing,
			Dependent: j,
			Determinants: []Constraint{
				{Attr: x, Kind: Const, Value: v, Toks: tokens.Tokenize(v)},
			},
			DepMin: 0,
			DepMax: cfg.EditingMaxDep,
		})
	}
}

// constants are the frequent values of one attribute, the conditioning
// constants of CDDs and the determinants of editing rules.
type constants struct {
	texts []string
	// of[i] is the index in texts of sample i's value, -1 if not frequent.
	of []int
}

// frequentConstants returns up to max values of attribute x with frequency
// >= 2, most frequent first (ties by text).
func frequentConstants(dom *repository.Domain, samples []*tuple.Record, x, max int) constants {
	type fv struct {
		text string
		freq int
	}
	var all []fv
	for i := 0; i < dom.Len(); i++ {
		v := dom.Value(i)
		if v.Freq >= 2 {
			all = append(all, fv{v.Text, v.Freq})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].freq != all[b].freq {
			return all[a].freq > all[b].freq
		}
		return all[a].text < all[b].text
	})
	if len(all) > max {
		all = all[:max]
	}
	cons := constants{texts: make([]string, len(all)), of: make([]int, len(samples))}
	for i, v := range all {
		cons.texts[i] = v.text
	}
	for i, s := range samples {
		cons.of[i] = slices.Index(cons.texts, s.Value(x))
	}
	return cons
}
