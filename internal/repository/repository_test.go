package repository

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"terids/internal/tokens"
	"terids/internal/tuple"
)

var schema = tuple.MustSchema("A", "B")

func sample(rid, a, b string) *tuple.Record {
	return tuple.MustRecord(schema, rid, 0, 0, []string{a, b})
}

func TestBuild(t *testing.T) {
	r, err := Build(schema, []*tuple.Record{
		sample("s1", "alpha beta", "one"),
		sample("s2", "alpha beta", "two"),
		sample("s3", "gamma", "one"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	d := r.Domain(0)
	if d.Len() != 2 {
		t.Fatalf("domain A has %d values, want 2", d.Len())
	}
	i := d.Lookup("alpha beta")
	if i == -1 || d.Value(i).Freq != 2 {
		t.Fatalf("alpha beta lookup/freq wrong: %d", i)
	}
	if d.Lookup("nope") != -1 {
		t.Fatal("unknown value must return -1")
	}
	if r.Domain(1).Len() != 2 {
		t.Fatal("domain B must have 2 distinct values")
	}
	if r.Sample(2).RID != "s3" {
		t.Fatal("Sample order must be preserved")
	}
}

func TestBuildRejectsIncomplete(t *testing.T) {
	bad := tuple.MustRecord(schema, "x", 0, 0, []string{"a", "-"})
	if _, err := Build(schema, []*tuple.Record{bad}); err == nil {
		t.Fatal("incomplete sample must be rejected")
	}
	if _, err := Build(nil, nil); err == nil {
		t.Fatal("nil schema must be rejected")
	}
	other := tuple.MustSchema("A", "B")
	mismatched := tuple.MustRecord(other, "y", 0, 0, []string{"a", "b"})
	if _, err := Build(schema, []*tuple.Record{mismatched}); err == nil {
		t.Fatal("foreign-schema sample must be rejected")
	}
}

func TestAdd(t *testing.T) {
	r, err := Build(schema, []*tuple.Record{sample("s1", "v1", "w1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(sample("s2", "v1", "w2")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d after Add, want 2", r.Len())
	}
	d := r.Domain(0)
	if d.Len() != 1 || d.Value(0).Freq != 2 {
		t.Fatal("Add must update domain frequencies")
	}
	if err := r.Add(tuple.MustRecord(schema, "bad", 0, 0, []string{"-", "x"})); err == nil {
		t.Fatal("Add must reject incomplete samples")
	}
}

func TestRangeByDistance(t *testing.T) {
	r, err := Build(schema, []*tuple.Record{
		sample("s1", "a b c", "x"),
		sample("s2", "a b d", "x"),
		sample("s3", "p q r", "x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := r.Domain(0)
	from := tokens.New("a", "b", "c")
	// dist to "a b c" = 0, to "a b d" = 1 - 2/4 = 0.5, to "p q r" = 1.
	got := d.RangeByDistance(from, 0, 0.6)
	if len(got) != 2 {
		t.Fatalf("RangeByDistance = %v, want 2 hits", got)
	}
	got = d.RangeByDistance(from, 0.4, 0.6)
	if len(got) != 1 || d.Value(got[0]).Text != "a b d" {
		t.Fatalf("narrow range = %v", got)
	}
}

func randomValue(r *rand.Rand) string {
	n := 1 + r.Intn(5)
	out := ""
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("t%d ", r.Intn(15))
	}
	return out
}

func TestIndexMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var recs []*tuple.Record
	for i := 0; i < 120; i++ {
		recs = append(recs, sample(fmt.Sprintf("s%d", i), randomValue(r), "x"))
	}
	repo, err := Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	d := repo.Domain(0)
	pivot := tokens.Tokenize(randomValue(r))
	idx := d.BuildIndex(pivot)
	for trial := 0; trial < 200; trial++ {
		from := tokens.Tokenize(randomValue(r))
		min := r.Float64() * 0.5
		max := min + r.Float64()*0.5
		want := d.RangeByDistance(from, min, max)
		got := idx.Range(from, min, max)
		sort.Ints(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Range(min=%v,max=%v) = %v, want %v", trial, min, max, got, want)
		}
	}
}

func TestIndexEmptyDomain(t *testing.T) {
	repo, err := Build(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := repo.Domain(0).BuildIndex(tokens.New("p"))
	if got := idx.Range(tokens.New("q"), 0, 1); got != nil {
		t.Fatalf("empty index Range = %v, want nil", got)
	}
}

// TestNeighboursMatchLinearScan is the memo's property: for random
// vocabularies, domain sizes on both sides of a word boundary, values and
// intervals, the memoised set is Domain.RangeByDistance, a second request
// returns the very same set, and MemoisedSets counts the distinct keys.
func TestNeighboursMatchLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 63, 64, 65, 130, 200} {
		// "!!" tokenizes to the empty set; random values collide, so the
		// domain is smaller than n by a varying amount.
		recs := []*tuple.Record{sample("s0", "!!", "x")}
		for i := 1; i < n; i++ {
			recs = append(recs, sample(fmt.Sprintf("s%d", i), randomValue(r), "x"))
		}
		repo, err := Build(schema, recs)
		if err != nil {
			t.Fatal(err)
		}
		d := repo.Domain(0)
		empty := d.Lookup("!!")
		if d.Value(empty).Toks.Len() != 0 {
			t.Fatalf("fixture: %q has tokens", "!!")
		}
		idx := d.BuildIndex(tokens.Tokenize(randomValue(r)))
		type key struct {
			v        int
			min, max float64
		}
		seen := map[key]*Neighbours{}
		check := func(v int, min, max float64) {
			t.Helper()
			got := idx.Neighbours(v, min, max)
			want := d.RangeByDistance(d.Value(v).Toks, min, max)
			if !reflect.DeepEqual(got.Indexes(), want) || got.Len() != len(want) {
				t.Fatalf("|dom|=%d Neighbours(%d, %v, %v) = %v (Len %d), want %v", d.Len(), v, min, max, got.Indexes(), got.Len(), want)
			}
			counts := make([]float64, d.Len())
			got.AddTo(counts)
			for _, w := range want {
				counts[w]--
			}
			for c, f := range counts {
				if f != 0 {
					t.Fatalf("|dom|=%d AddTo left %v at %d", d.Len(), f, c)
				}
			}
			k := key{v, min, max}
			if first, ok := seen[k]; ok && first != got {
				t.Fatalf("|dom|=%d key %v: a repeated request returned a different set", d.Len(), k)
			}
			seen[k] = got
			if again := idx.Neighbours(v, min, max); again != got {
				t.Fatalf("|dom|=%d key %v: second request returned a different set", d.Len(), k)
			}
			if idx.MemoisedSets() != len(seen) {
				t.Fatalf("|dom|=%d MemoisedSets = %d, want %d distinct keys", d.Len(), idx.MemoisedSets(), len(seen))
			}
		}
		check(empty, 0, 0)     // exactly the empty-set value itself
		check(empty, 1, 1)     // everything else
		check(empty, 0.2, 0.8) // nothing: an empty set is at 0 or 1 from anything
		for trial := 0; trial < 100; trial++ {
			v := r.Intn(d.Len())
			min := r.Float64() * 0.5
			check(v, min, min+r.Float64()*0.5)
			check(v, 1, 1)
			check(v, 0.5, 0.25) // inverted: matches nothing
			check(v, 0, 0.3)    // keys sharing one bound with another
			check(v, 0, 0.6)
			check(v, 0.3, 0.6)
		}
	}
}

// TestNeighboursConcurrent has 8 goroutines request overlapping keys of one
// index: every goroutine must see the same set per key (run under -race).
func TestNeighboursConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var recs []*tuple.Record
	for i := 0; i < 150; i++ {
		recs = append(recs, sample(fmt.Sprintf("s%d", i), randomValue(r), "x"))
	}
	repo, err := Build(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	d := repo.Domain(0)
	idx := d.BuildIndex(tokens.Tokenize(randomValue(r)))
	intervals := [][2]float64{{0, 0.3}, {0.3, 0.6}, {0.6, 1}, {1, 1}}
	const workers = 8
	got := make([][]*Neighbours, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks every key from its own starting point, so
			// first requests for one key collide.
			sets := make([]*Neighbours, d.Len()*len(intervals))
			for n := range sets {
				k := (n + g*len(sets)/workers) % len(sets)
				iv := intervals[k%len(intervals)]
				sets[k] = idx.Neighbours(k/len(intervals), iv[0], iv[1])
			}
			got[g] = sets
		}(g)
	}
	wg.Wait()
	for k, s := range got[0] {
		iv := intervals[k%len(intervals)]
		want := d.RangeByDistance(d.Value(k/len(intervals)).Toks, iv[0], iv[1])
		if !reflect.DeepEqual(s.Indexes(), want) {
			t.Fatalf("key %d: %v, want %v", k, s.Indexes(), want)
		}
		for g := 1; g < workers; g++ {
			if got[g][k] != s {
				t.Fatalf("key %d: goroutine %d holds a different set than goroutine 0", k, g)
			}
		}
	}
	if n := idx.MemoisedSets(); n != len(got[0]) {
		t.Fatalf("MemoisedSets = %d, want %d", n, len(got[0]))
	}
}
