package tokens

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"---", nil},
		{"Hello", []string{"hello"}},
		{"loss of weight", []string{"loss", "of", "weight"}},
		{"Loss, of; WEIGHT!", []string{"loss", "of", "weight"}},
		{"drug therapy, drug therapy", []string{"drug", "therapy"}},
		{"a1 b2-c3", []string{"a1", "b2", "c3"}},
		{"Ünïcode Tökens", []string{"tökens", "ünïcode"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !slices.Equal(got.Texts(), c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got.Texts(), c.want)
		}
		if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Errorf("Tokenize(%q) = %v: IDs not sorted and distinct", c.in, []uint32(got))
		}
	}
}

func TestNewEmpty(t *testing.T) {
	if got := New(); got != nil {
		t.Fatalf("New() = %v, want nil", got)
	}
	if got := New("", ""); got != nil {
		t.Fatalf("New(\"\",\"\") = %v, want nil", got)
	}
}

// TestTextOrderIgnoresInternOrder interns a vocabulary in descending text
// order, so ID order is the reverse of text order, and checks that every
// text-facing view still sorts by text.
func TestTextOrderIgnoresInternOrder(t *testing.T) {
	words := []string{"ordzz", "ordmm", "ordaa"}
	var ids []uint32
	for _, w := range words {
		ids = append(ids, New(w)[0])
	}
	if !(ids[0] < ids[1] && ids[1] < ids[2]) {
		t.Fatalf("IDs %v not in first-seen order", ids)
	}
	s := New(words...)
	if got, want := s.String(), "ordaa ordmm ordzz"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := s.Texts(), []string{"ordaa", "ordmm", "ordzz"}; !slices.Equal(got, want) {
		t.Errorf("Texts = %v, want %v", got, want)
	}
	if got, want := s.SortedByText(), []uint32{ids[2], ids[1], ids[0]}; !slices.Equal(got, want) {
		t.Errorf("SortedByText = %v, want %v", got, want)
	}
	if !slices.Equal([]uint32(s), ids) {
		t.Errorf("SortedByText must not reorder the set itself: %v", []uint32(s))
	}
}

// model is the reference implementation the ID sets are checked against.
type model map[string]struct{}

func modelOf(words []string) model {
	m := model{}
	for _, w := range words {
		if w != "" {
			m[w] = struct{}{}
		}
	}
	return m
}

func (m model) intersect(o model) int {
	n := 0
	for w := range m {
		if _, ok := o[w]; ok {
			n++
		}
	}
	return n
}

func (m model) union(o model) []string {
	var out []string
	for w := range m {
		out = append(out, w)
	}
	for w := range o {
		if _, ok := m[w]; !ok {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// TestSetOpsMatchStringModel draws pairs of sets from random vocabularies —
// interned in random order, so ID order and text order are unrelated — and
// checks every set operation against the map-of-strings model.
func TestSetOpsMatchStringModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		vocab := make([]string, 1+rng.Intn(40))
		for i := range vocab {
			vocab[i] = fmt.Sprintf("m%d_%d", round%7, rng.Intn(60))
		}
		draw := func() []string {
			words := make([]string, rng.Intn(25))
			for i := range words {
				if rng.Intn(10) == 0 {
					continue // an empty token, which New must drop
				}
				words[i] = vocab[rng.Intn(len(vocab))]
			}
			return words
		}
		aw, bw := draw(), draw()
		a, b := New(aw...), New(bw...)
		am, bm := modelOf(aw), modelOf(bw)

		if a.Len() != len(am) || b.Len() != len(bm) {
			t.Fatalf("Len: %d, %d; model %d, %d", a.Len(), b.Len(), len(am), len(bm))
		}
		inter := am.intersect(bm)
		if got := a.IntersectSize(b); got != inter {
			t.Fatalf("IntersectSize(%v, %v) = %d, model %d", a, b, got, inter)
		}
		if got := b.IntersectSize(a); got != inter {
			t.Fatalf("IntersectSize not symmetric: %d vs %d", got, inter)
		}
		if got := a.ContainsAny(b); got != (inter > 0) {
			t.Fatalf("ContainsAny(%v, %v) = %v, model intersect %d", a, b, got, inter)
		}
		want := 1.0
		if len(am)+len(bm) > 0 {
			want = float64(inter) / float64(len(am)+len(bm)-inter)
		}
		if got := Jaccard(a, b); got != want {
			t.Fatalf("Jaccard(%v, %v) = %v, model %v", a, b, got, want)
		}
		u := a.Union(b)
		if !slices.Equal(u.Texts(), am.union(bm)) {
			t.Fatalf("Union(%v, %v) = %v, model %v", a, b, u, am.union(bm))
		}
		if !u.Equal(New(append(aw, bw...)...)) {
			t.Fatalf("Union(%v, %v) = %v differs from New over both word lists", a, b, u)
		}
		sameModel := len(am) == len(bm) && inter == len(am)
		if got := a.Equal(b); got != sameModel {
			t.Fatalf("Equal(%v, %v) = %v, model %v", a, b, got, sameModel)
		}
		for _, w := range vocab {
			_, in := am[w]
			if got := a.Contains(New(w)[0]); got != in {
				t.Fatalf("%v.Contains(%q) = %v, model %v", a, w, got, in)
			}
		}
	}
}

// concurrentRuns gives each run of TestDictionaryConcurrent under -count a
// vocabulary the process-wide dictionary has not seen.
var concurrentRuns int

// TestDictionaryConcurrent has goroutines tokenise overlapping slices of one
// vocabulary at once (run it under -race): every text must end up with
// exactly one ID, the same in every goroutine, and every ID must map back to
// its text.
func TestDictionaryConcurrent(t *testing.T) {
	const workers, vocabSize, window = 8, 400, 250
	concurrentRuns++
	vocab := make([]string, vocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("conc%dx%04d", concurrentRuns, i)
	}
	before := DictSize()
	seen := make([]map[string]uint32, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := map[string]uint32{}
			rng := rand.New(rand.NewSource(int64(g)))
			lo := g * (vocabSize - window) / (workers - 1)
			for i := 0; i < 2000; i++ {
				a, b := vocab[lo+rng.Intn(window)], vocab[lo+rng.Intn(window)]
				for _, id := range Tokenize(a + " " + b) {
					text := Text(id)
					if text != a && text != b {
						t.Errorf("Tokenize(%q %q) holds ID %d = %q", a, b, id, text)
						return
					}
					if prev, ok := mine[text]; ok && prev != id {
						t.Errorf("%q had ID %d, now %d", text, prev, id)
						return
					}
					mine[text] = id
				}
			}
			seen[g] = mine
		}(g)
	}
	wg.Wait()
	all := map[string]uint32{}
	byID := map[uint32]string{}
	for _, mine := range seen {
		for text, id := range mine {
			if prev, ok := all[text]; ok && prev != id {
				t.Fatalf("%q has IDs %d and %d in different goroutines", text, prev, id)
			}
			if prev, ok := byID[id]; ok && prev != text {
				t.Fatalf("ID %d names both %q and %q", id, prev, text)
			}
			all[text], byID[id] = id, text
		}
	}
	if got := DictSize() - before; got != len(all) {
		t.Fatalf("dictionary grew by %d for %d distinct texts", got, len(all))
	}
}
