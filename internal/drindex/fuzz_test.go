package drindex

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// scan is the DR-index as one flat pass over R: every sample gets the exact
// check, in repo.Samples() order. It is the oracle the posting lists must
// reproduce visit for visit.
func scan(repo *repository.Repository, r *tuple.Record, rs []*rules.Rule, visit func(int, *tuple.Record) bool) QueryStats {
	var stats QueryStats
	if len(rs) == 0 {
		return stats
	}
	dists, have := make([]float64, r.D()), make([]bool, r.D())
	for _, s := range repo.Samples() {
		clear(have)
		stats.Verified++
		for i, rule := range rs {
			matched := true
			for _, c := range rule.Determinants {
				x := c.Attr
				if !have[x] {
					dists[x] = tokens.JaccardDistance(r.Tokens(x), s.Tokens(x))
					have[x] = true
				}
				switch c.Kind {
				case rules.Const:
					matched = dists[x] == 0
				case rules.Interval:
					matched = dists[x] >= c.Min && dists[x] <= c.Max
				}
				if !matched {
					break
				}
			}
			if matched {
				stats.Matched++
				if !visit(i, s) {
					return stats
				}
			}
		}
	}
	return stats
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

// Token masks: bits 0-27 are R's 28-token vocabulary, bits 28-31 tokens only
// arrivals carry. The vocabulary is that wide because the 1e-9 in the cut
// first matters at 25 tokens: 1 − (1 − 14/25) times 25 is 14.000000000000002
// in float64, one token short of the prefix exact arithmetic gives.
const (
	fuzzVocab = 1<<28 - 1
	fuzzAlien = 0xF << 28
)

// fuzzValue renders a token mask as an attribute value. An empty mask is a
// present value with an empty token set.
func fuzzValue(mask uint32) string {
	var toks []string
	for i := 0; i < 32; i++ {
		if mask>>i&1 == 1 {
			toks = append(toks, fmt.Sprintf("fz%02d", i))
		}
	}
	if len(toks) == 0 {
		return "."
	}
	return strings.Join(toks, " ")
}

// fuzzCase is one decoded input: R, the samples to append to it after Build
// (Section 5.5), an arrival, rules, and the visit after which to stop (0:
// never).
type fuzzCase struct {
	repo    *repository.Repository
	added   []*tuple.Record
	arrival *tuple.Record
	rules   []*rules.Rule
	stop    int
}

// decodeFuzzCase turns bytes into a case. A value byte picks one of four
// base masks of its attribute, optionally intersects it with the next base
// (which makes subsets), and toggles one token, so Jaccard distances cluster
// around the thresholds; one byte in 32 is the empty set. Interval bounds are
// attained distances 1 − k/n (some ≤ 0.5, some not), arbitrary values up to
// 0.5, or values above 0.5, which send the call down the fallback scan.
func decodeFuzzCase(data []byte) fuzzCase {
	b := fuzzBytes(data)
	d := 2 + b.next()%3
	attrs := make([]string, d)
	for x := range attrs {
		attrs[x] = fmt.Sprintf("a%d", x)
	}
	schema := tuple.MustSchema(attrs...)
	bases := make([][4]uint32, d)
	for x := range bases {
		for k := range bases[x] {
			bases[x][k] = uint32(b.next()|b.next()<<8|b.next()<<16|b.next()<<24) & fuzzVocab
		}
	}
	mask := func(x, v int) uint32 {
		tog := v >> 2 % 32
		if tog == 31 {
			return 0
		}
		m := bases[x][v&3]
		if v&0x80 != 0 {
			m &= bases[x][(v+1)&3]
		}
		return (m ^ 1<<tog) & fuzzVocab
	}
	n := b.next() % 65
	added := min(n, b.next()%4)
	samples := make([]*tuple.Record, n)
	for i := range samples {
		vals := make([]string, d)
		for x := range vals {
			vals[x] = fuzzValue(mask(x, b.next()))
		}
		samples[i] = tuple.MustRecord(schema, fmt.Sprintf("s%d", i), 0, 0, vals)
	}
	repo, err := repository.Build(schema, samples[:n-added])
	if err != nil {
		panic(err)
	}
	vals := make([]string, d)
	for x := range vals {
		m, w := mask(x, b.next()), b.next()
		if w&0x10 != 0 {
			m |= uint32(w) << 28 & fuzzAlien
		}
		vals[x] = fuzzValue(m)
	}
	arrival := tuple.MustRecord(schema, "q", 1, 0, vals)
	var rs []*rules.Rule
	for nr := 1 + b.next()%6; len(rs) < nr; {
		rule := &rules.Rule{Kind: rules.KindCDD}
		for nd := 1 + b.next()%3; len(rule.Determinants) < nd; {
			x, k := b.next()%d, b.next()
			if k%5 == 0 {
				// A constant the arrival carries, so the rule applies to it;
				// an empty arrival value makes it the empty constant.
				rule.Determinants = append(rule.Determinants, rules.Constraint{
					Attr: x, Kind: rules.Const, Value: arrival.Value(x), Toks: arrival.Tokens(x),
				})
				continue
			}
			var hi float64
			switch k % 4 {
			case 0:
				den := 1 + b.next()%32
				hi = 1 - float64(b.next()%(den+1))/float64(den)
			case 1:
				den := 1 + b.next()%32
				num := (den + 1) / 2
				hi = 1 - float64(num+b.next()%(den-num+1))/float64(den)
			case 2:
				hi = float64(b.next()) / 510
			case 3:
				hi = 0.5 + float64(1+b.next())/512
			}
			var lo float64
			switch m := b.next(); m % 3 {
			case 1:
				lo = hi
			case 2:
				lo = hi * float64(m) / 255
			}
			rule.Determinants = append(rule.Determinants, rules.Constraint{Attr: x, Kind: rules.Interval, Min: lo, Max: hi})
		}
		rs = append(rs, rule)
	}
	return fuzzCase{repo: repo, added: samples[n-added:], arrival: arrival, rules: rs, stop: b.next() % 8}
}

// FuzzMatchingSamplesMatchesScan: the posting lists visit exactly the (rule,
// sample) pairs a flat scan of R visits, in the same order, and stop at the
// same visit.
func FuzzMatchingSamplesMatchesScan(f *testing.F) {
	f.Add([]byte{})
	// The ε edge: R is one 14-token sample, a subset of the 25-token arrival
	// whose other 11 tokens R lacks, under Max = 1 − 14/25. Only a cut with
	// the 1e-9 reaches the sample's first token.
	f.Add([]byte("\x00\xff\xff\xff\x01\x00\xf8\xff\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\xf0\x00\x70\x00\x00\x00\x00\x00\x00\x04\x18\x0e\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		ix, err := Build(c.repo, &pivot.Selection{PerAttr: make([]pivot.AttrPivots, c.repo.Schema().D())}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.repo.Add(c.added...); err != nil {
			t.Fatal(err)
		}
		type hit struct {
			rule int
			rid  string
		}
		collect := func(out *[]hit) func(int, *tuple.Record) bool {
			return func(i int, s *tuple.Record) bool {
				*out = append(*out, hit{i, s.RID})
				return len(*out) != c.stop
			}
		}
		var got, want []hit
		gs := ix.MatchingSamplesMulti(c.arrival, c.rules, collect(&got))
		ws := scan(c.repo, c.arrival, c.rules, collect(&want))
		if !slices.Equal(got, want) || gs.Matched != ws.Matched {
			t.Fatalf("index visited %d pairs (Matched %d), scan %d (Matched %d)\nrules %v\narrival %v\ngot  %v\nwant %v",
				len(got), gs.Matched, len(want), ws.Matched, c.rules, c.arrival, got, want)
		}
		if gs.Verified > ws.Verified {
			t.Fatalf("index verified %d samples, the scan %d", gs.Verified, ws.Verified)
		}
	})
}
