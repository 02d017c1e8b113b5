package prune

import (
	"fmt"
	"math/rand"
	"testing"

	"terids/internal/pivot"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// BenchmarkRefine is the prune.Refine rung of the benchmark ladder, on the
// two pair shapes the benchmark workloads hand it:
//
//   - single: complete EBooks tuples, one instance a side, attribute values
//     of 6/3/2/26 tokens (resolve-heavy);
//   - 36x36: Citations tuples imputed on two attributes with 6 candidates
//     each, 8/5/3/1 tokens (impute-heavy's largest pairs), with γ out of
//     reach and α = 0, so all 1 296 instance pairs are walked.
//
// Values overlap by about half within a pair, and every tuple carries the
// topic keyword, so no pair skips the similarity test.
func BenchmarkRefine(b *testing.B) {
	for _, bc := range []struct {
		name   string
		toks   []int // tokens per attribute value
		cands  []int // candidates per attribute
		gamma  float64
		alpha  float64
		nPairs int
	}{
		{"single", []int{6, 3, 2, 26}, []int{1, 1, 1, 1}, 2, 0.5, 64},
		{"36x36", []int{8, 5, 3, 1}, []int{6, 1, 6, 1}, 4, 0, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			d := len(bc.toks)
			attrs := make([]string, d)
			sel := &pivot.Selection{}
			for x := range attrs {
				attrs[x] = fmt.Sprintf("A%d", x)
				piv := benchValue(r, x, bc.toks[x])
				sel.PerAttr = append(sel.PerAttr, pivot.AttrPivots{Attr: x, Texts: []string{piv.String()}, Toks: []tokens.Set{piv}})
			}
			schema := tuple.MustSchema(attrs...)
			kw := tokens.New("topic")
			profile := func(rid string, base []tokens.Set) *Profile {
				im := &tuple.Imputed{R: tuple.MustRecord(schema, rid, 0, 0, attrs), Dists: make([]tuple.AttrDist, d)}
				for x := range im.Dists {
					for i := 0; i < bc.cands[x]; i++ {
						toks := benchMix(r, base[x], benchValue(r, x, bc.toks[x]))
						im.Dists[x].Cands = append(im.Dists[x].Cands, tuple.Candidate{Text: toks.String(), Toks: toks, P: 1 / float64(bc.cands[x])})
					}
				}
				im.Dists[0].Cands[0].Toks = im.Dists[0].Cands[0].Toks.Union(kw)
				return BuildProfile(im, sel, kw)
			}
			type pair struct{ a, b *Profile }
			pairs := make([]pair, bc.nPairs)
			for i := range pairs {
				base := make([]tokens.Set, d)
				for x := range base {
					base[x] = benchValue(r, x, bc.toks[x])
				}
				pairs[i] = pair{profile(fmt.Sprintf("a%d", i), base), profile(fmt.Sprintf("b%d", i), base)}
			}
			checked := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				checked += Refine(p.a, p.b, bc.gamma, bc.alpha).PairsChecked
			}
			b.ReportMetric(float64(checked)/float64(b.N), "pairs/op")
		})
	}
}

// benchValue draws n distinct tokens of attribute x from a 4n-token
// vocabulary.
func benchValue(r *rand.Rand, x, n int) tokens.Set {
	ts := make([]string, 0, n)
	for _, i := range r.Perm(4 * n)[:n] {
		ts = append(ts, fmt.Sprintf("v%d_%d", x, i))
	}
	return tokens.New(ts...)
}

// benchMix keeps each token of base with probability 1/2 and tops the value
// up to |base| tokens from other.
func benchMix(r *rand.Rand, base, other tokens.Set) tokens.Set {
	var keep []string
	for _, t := range base.Texts() {
		if r.Intn(2) == 0 {
			keep = append(keep, t)
		}
	}
	for _, t := range other.Texts() {
		if len(keep) >= base.Len() {
			break
		}
		keep = append(keep, t)
	}
	return tokens.New(keep...)
}
