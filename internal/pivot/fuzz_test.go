package pivot

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"terids/internal/repository"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// referenceSelect is Select the way Appendix B was first implemented here:
// a |dom| × |R| distance matrix over every sample, and one map-keyed joint
// histogram per candidate. It is the oracle the bucket table and the dense
// joint histograms must reproduce choice for choice.
func referenceSelect(repo *repository.Repository, cfg Config) []AttrPivots {
	cfg.fill()
	out := make([]AttrPivots, repo.Schema().D())
	for x := range out {
		out[x] = referenceSelectAttr(repo, x, cfg)
	}
	return out
}

func referenceSelectAttr(repo *repository.Repository, x int, cfg Config) AttrPivots {
	dom := repo.Domain(x)
	samples := repo.Samples()
	distTo := make([][]float64, dom.Len())
	for c := range distTo {
		row := make([]float64, len(samples))
		for si, s := range samples {
			row[si] = tokens.JaccardDistance(s.Tokens(x), dom.Value(c).Toks)
		}
		distTo[c] = row
	}
	var chosen []int
	var chosenDists [][]float64
	best := 0.0
	for len(chosen) < cfg.CntMax {
		bestC, bestH := -1, -1.0
		for c := range distTo {
			if slices.Contains(chosen, c) {
				continue
			}
			if h := referenceJointEntropy(append(chosenDists, distTo[c]), cfg.Buckets); h > bestH {
				bestH, bestC = h, c
			}
		}
		if bestC == -1 || (len(chosen) > 0 && bestH <= best+1e-12) {
			break
		}
		chosen = append(chosen, bestC)
		chosenDists = append(chosenDists, distTo[bestC])
		best = bestH
		if best >= cfg.MinEntropy {
			break
		}
	}
	out := AttrPivots{Attr: x, Entropy: best}
	for _, c := range chosen {
		out.Texts = append(out.Texts, dom.Value(c).Text)
		out.Toks = append(out.Toks, dom.Value(c).Toks)
	}
	return out
}

// referenceJointEntropy keys each sample by the string of its bucket ids
// under every pivot, then sums over the sorted cell counts, a run of equal
// counts as one term.
func referenceJointEntropy(dists [][]float64, buckets int) float64 {
	n := len(dists[0])
	counts := make(map[string]int, n)
	key := make([]byte, len(dists))
	for i := 0; i < n; i++ {
		for p := range dists {
			b := int(dists[p][i] * float64(buckets))
			if b >= buckets {
				b = buckets - 1
			}
			key[p] = byte(b)
		}
		counts[string(key)]++
	}
	sorted := make([]int, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	slices.Sort(sorted)
	h := 0.0
	for i := 0; i < len(sorted); {
		run := 1
		for i+run < len(sorted) && sorted[i+run] == sorted[i] {
			run++
		}
		p := float64(sorted[i]) / float64(n)
		h -= float64(run) * (p * math.Log(p))
		i += run
	}
	return h
}

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzValue renders a 12-bit token mask as an attribute value. An empty
// mask is a present value with an empty token set.
func fuzzValue(mask int) string {
	var toks []string
	for i := 0; i < 12; i++ {
		if mask>>i&1 == 1 {
			toks = append(toks, fmt.Sprintf("t%d", i))
		}
	}
	if len(toks) == 0 {
		return "."
	}
	return strings.Join(toks, " ")
}

// decodeFuzzRepo turns bytes into a repository and a config: 2–64 samples
// over 1–3 attributes, B ∈ {2, 5, 10}, CntMax 1–3. Each attribute has a
// palette of six token masks over a 12-token vocabulary; a value byte picks
// one, may toggle one token of it, and one byte in 64 is the empty set, so
// values repeat and distances tie.
func decodeFuzzRepo(data []byte) (*repository.Repository, Config) {
	b := fuzzBytes(data)
	d := 1 + b.next()%3
	cfg := Config{
		Buckets:    []int{2, 5, 10}[b.next()%3],
		CntMax:     1 + b.next()%3,
		MinEntropy: []float64{0.5, 1.5, 99}[b.next()%3],
	}
	attrs := make([]string, d)
	palettes := make([][6]int, d)
	for x := range attrs {
		attrs[x] = fmt.Sprintf("a%d", x)
		for k := range palettes[x] {
			palettes[x][k] = (b.next() | b.next()<<8) & 0xFFF
		}
	}
	schema := tuple.MustSchema(attrs...)
	samples := make([]*tuple.Record, 2+b.next()%63)
	for i := range samples {
		vals := make([]string, d)
		for x := range vals {
			v := b.next()
			m := palettes[x][v%6]
			switch {
			case v%64 == 63:
				m = 0
			case v&0x40 != 0:
				m ^= 1 << (v >> 3 % 12)
			}
			vals[x] = fuzzValue(m)
		}
		samples[i] = tuple.MustRecord(schema, fmt.Sprintf("s%d", i), 0, 0, vals)
	}
	repo, err := repository.Build(schema, samples)
	if err != nil {
		panic(err)
	}
	return repo, cfg
}

// FuzzSelectMatchesReference: Select chooses the pivots the distance-matrix
// reference chooses, in the same order, at the same joint entropy.
func FuzzSelectMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x02\x02\x01\xff\x0f\x0f\x00\xf0\x00\x33\x03\xcc\x0c\x55\x05\x40\x00\x01\x02\x03\x04\x05\x46\x4f\x7f\x3f\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		repo, cfg := decodeFuzzRepo(data)
		sel, err := Select(repo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSelect(repo, cfg)
		for x, got := range sel.PerAttr {
			if !slices.Equal(got.Texts, want[x].Texts) || math.Abs(got.Entropy-want[x].Entropy) > 1e-12 {
				t.Fatalf("attr %d, %+v: Select chose %q at %v, the reference %q at %v",
					x, cfg, got.Texts, got.Entropy, want[x].Texts, want[x].Entropy)
			}
		}
	})
}
