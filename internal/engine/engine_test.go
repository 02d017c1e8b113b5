package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/tuple"
)

// fixture caches one seeded synthetic stream plus its offline state across
// subtests (Prepare is the expensive part).
type fixture struct {
	sh     *core.Shared
	cfg    core.Config
	stream []*tuple.Record
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func loadFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		prof, err := dataset.ProfileByName("Citations")
		if err != nil {
			fixErr = err
			return
		}
		data, err := dataset.Generate(prof, dataset.Options{
			Scale: 0.25, MissingRate: 0.3, MissingAttrs: 1, RepoRatio: 0.5, Seed: 7,
		})
		if err != nil {
			fixErr = err
			return
		}
		sh, err := core.Prepare(data.Repo, core.DefaultPrepareConfig(data.Keywords))
		if err != nil {
			fixErr = err
			return
		}
		stream := data.Stream
		if len(stream) > 400 {
			stream = stream[:400]
		}
		fix = fixture{
			sh: sh,
			cfg: core.Config{
				Keywords:   data.Keywords,
				Gamma:      0.5 * float64(data.Schema.D()),
				Alpha:      0.4,
				WindowSize: 50,
				Streams:    2,
			},
			stream: stream,
		}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

// runProcessor replays the stream through the single-threaded reference and
// returns per-arrival pair slices plus the final entity set.
func runProcessor(t *testing.T, f fixture) ([][]core.Pair, []core.Pair) {
	t.Helper()
	proc, err := core.NewProcessor(f.sh, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	perArrival := make([][]core.Pair, 0, len(f.stream))
	for _, r := range f.stream {
		pairs, err := proc.Advance(r)
		if err != nil {
			t.Fatal(err)
		}
		perArrival = append(perArrival, pairs)
	}
	return perArrival, proc.Results().Pairs()
}

func samePairs(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A.RID != b[i].A.RID || a[i].B.RID != b[i].B.RID || a[i].Prob != b[i].Prob {
			return false
		}
	}
	return true
}

// TestEngineMatchesProcessor is the sharding soundness contract: for
// K ∈ {1, 2, 4, 8} the engine's per-arrival output — pair identities,
// emission order, and exact probabilities — and its final entity set are
// identical to single-threaded core.Processor on the same input. So are the
// pruning counters a resident's single home makes partition-independent:
// ProbUB, InstPair and Refined always, and with TrackPruning on (which also
// counts the pairs eliminated at cell level) all six. Run under -race in CI.
func TestEngineMatchesProcessor(t *testing.T) {
	f := loadFixture(t)
	for _, tc := range []struct {
		track bool
		ks    []int
	}{
		{false, []int{1, 2, 4, 8}},
		{true, []int{1, 2, 4}},
	} {
		cfg := f.cfg
		cfg.TrackPruning = tc.track
		proc, err := core.NewProcessor(f.sh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantPerArrival := make([][]core.Pair, 0, len(f.stream))
		nEmitted := 0
		for _, r := range f.stream {
			pairs, err := proc.Advance(r)
			if err != nil {
				t.Fatal(err)
			}
			wantPerArrival = append(wantPerArrival, pairs)
			nEmitted += len(pairs)
		}
		wantFinal, wantPrune := proc.Results().Pairs(), proc.PruneStats()
		if nEmitted == 0 {
			t.Fatal("reference emitted no pairs; fixture too small to be meaningful")
		}

		for _, k := range tc.ks {
			name := fmt.Sprintf("K=%d", k)
			if tc.track {
				name += ",TrackPruning"
			}
			t.Run(name, func(t *testing.T) {
				var mu sync.Mutex
				got := make([][]core.Pair, len(f.stream))
				eng, err := New(f.sh, Config{
					Core:   cfg,
					Shards: k,
					OnResult: func(res Result) {
						mu.Lock()
						got[res.Seq] = res.Pairs
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range f.stream {
					if err := eng.Submit(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				for i := range wantPerArrival {
					if !samePairs(wantPerArrival[i], got[i]) {
						t.Fatalf("arrival %d (%s): engine K=%d emitted %v, processor %v",
							i, f.stream[i].RID, k, got[i], wantPerArrival[i])
					}
				}
				final := eng.ResultSet()
				if !samePairs(wantFinal, final) {
					t.Fatalf("final entity set differs at K=%d: engine %d pairs, processor %d",
						k, len(final), len(wantFinal))
				}
				st := eng.Stats()
				if st.Completed != int64(len(f.stream)) {
					t.Fatalf("completed %d arrivals, submitted %d", st.Completed, len(f.stream))
				}
				if st.Totals.Tuples != int64(len(f.stream)) {
					t.Fatalf("stats counted %d tuples, want %d", st.Totals.Tuples, len(f.stream))
				}
				gotPrune := st.Totals.Prune
				if !tc.track {
					// Cell-level eliminations go uncounted, and how many
					// there are depends on the partitioning.
					gotPrune.Considered, gotPrune.Topic, gotPrune.SimUB = wantPrune.Considered, wantPrune.Topic, wantPrune.SimUB
				}
				if gotPrune != wantPrune {
					t.Fatalf("pruning counters differ at K=%d: engine %+v, processor %+v", k, st.Totals.Prune, wantPrune)
				}
			})
		}
	}
}

// TestEngineLifecycleErrors covers the submission error contract.
func TestEngineLifecycleErrors(t *testing.T) {
	f := loadFixture(t)

	t.Run("foreign schema", func(t *testing.T) {
		eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		foreign := tuple.MustSchema("x", "y", "z", "w")
		r := tuple.MustRecord(foreign, "fr1", 0, 0, []string{"a", "b", "c", "d"})
		if err := eng.Submit(r); err == nil {
			t.Fatal("foreign-schema submit succeeded")
		}
	})

	t.Run("closed", func(t *testing.T) {
		eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Submit(f.stream[0]); err != ErrClosed {
			t.Fatalf("submit after close: %v, want ErrClosed", err)
		}
		if err := eng.TrySubmit(f.stream[0]); err != ErrClosed {
			t.Fatalf("trysubmit after close: %v, want ErrClosed", err)
		}
	})

	t.Run("bad stream rejected synchronously", func(t *testing.T) {
		eng, err := New(f.sh, Config{Core: f.cfg, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		sch := f.sh.Schema
		vals := make([]string, sch.D())
		for i := range vals {
			vals[i] = "v"
		}
		bad := tuple.MustRecord(sch, "bad1", 9, 0, vals)
		if err := eng.Submit(bad); !errors.Is(err, ErrInvalidRecord) {
			t.Fatalf("submit with stream 9: %v, want ErrInvalidRecord", err)
		}
		// The pipeline stays healthy: valid arrivals still process.
		if err := eng.Submit(f.stream[0]); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("close after rejected submit: %v", err)
		}
	})
}

// TestEngineDuplicateRIDRejected checks that re-submitting a live RID drops
// that arrival (Result.Rejected) without poisoning the pipeline, and that a
// RID becomes submittable again once its first instance expires.
func TestEngineDuplicateRIDRejected(t *testing.T) {
	f := loadFixture(t)
	cfg := f.cfg
	cfg.WindowSize = 5

	var mu sync.Mutex
	var results []Result
	eng, err := New(f.sh, Config{
		Core:   cfg,
		Shards: 2,
		OnResult: func(res Result) {
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dup := f.stream[0]
	if err := eng.Submit(dup); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(dup); err != nil {
		t.Fatalf("duplicate submit should enqueue (rejection is per-tuple, async): %v", err)
	}
	// 5 more arrivals on dup's stream push it out of the w=5 window; then
	// the same RID is acceptable again.
	pushed := 0
	for _, r := range f.stream[1:] {
		if r.Stream != dup.Stream {
			continue
		}
		if err := eng.Submit(r); err != nil {
			t.Fatal(err)
		}
		if pushed++; pushed == 5 {
			break
		}
	}
	if err := eng.Submit(dup); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var rejected []int64
	for _, res := range results {
		if res.Rejected {
			rejected = append(rejected, res.Seq)
		}
	}
	if len(rejected) != 1 || rejected[0] != 1 {
		t.Fatalf("rejected seqs %v, want exactly [1]", rejected)
	}
	if st := eng.Stats(); st.Rejected != 1 || st.Completed != int64(len(results)) {
		t.Fatalf("stats rejected=%d completed=%d, want 1 and %d", st.Rejected, st.Completed, len(results))
	}
}
