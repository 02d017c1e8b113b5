package main

import (
	"slices"
	"strings"
	"testing"

	"terids/internal/dataset"
	"terids/internal/obs"
)

// TestOfflineDrawsGenerateRepo pins serve's offline phase to the repository
// the benchmark's verify lap rebuilds: that lap checks served pairs against
// a core.Processor over dataset.Generate(…, ξ 0.3, m 1).Repo, so serve's
// repository-only draw must equal it sample for sample, and K must be the
// profile's topics unless -keywords overrides them.
func TestOfflineDrawsGenerateRepo(t *testing.T) {
	for _, tc := range []struct {
		name, args string
		keywords   []string // nil = the profile's topics
	}{
		{"mixed-default", "-dataset Citations -scale 20 -eta 0.025 -w 200 -seed 1", nil},
		{"impute-heavy", "-dataset Citations -scale 10 -eta 0.1 -w 50 -seed 1", nil},
		{"keywords override", "-dataset Citations -scale 0.25 -eta 0.5 -seed 7 -keywords a,b", []string{"a", "b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseConfig(strings.Fields(tc.args))
			if err != nil {
				t.Fatal(err)
			}
			sh, kws, err := offline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := dataset.ProfileByName(cfg.dataset)
			if err != nil {
				t.Fatal(err)
			}
			data, err := dataset.Generate(prof, dataset.Options{
				Scale: cfg.scale, RepoRatio: cfg.eta, Seed: cfg.seed, MissingRate: 0.3, MissingAttrs: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := data.Repo
			if sh.Repo.Len() != want.Len() {
				t.Fatalf("|R| = %d, want %d", sh.Repo.Len(), want.Len())
			}
			for i, got := range sh.Repo.Samples() {
				// String renders RID, Seq and every value.
				if w := want.Sample(i); got.String() != w.String() || got.Stream != w.Stream || got.EntityID != w.EntityID {
					t.Fatalf("sample %d is %s (stream %d, entity %d), want %s (stream %d, entity %d)",
						i, got, got.Stream, got.EntityID, w, w.Stream, w.EntityID)
				}
			}
			wantKW := tc.keywords
			if wantKW == nil {
				wantKW = data.Keywords
			}
			if !slices.Equal(kws, wantKW) {
				t.Fatalf("keywords %q, want %q", kws, wantKW)
			}
			if got := sh.Keywords.Texts(); !slices.Equal(got, slices.Sorted(slices.Values(wantKW))) {
				t.Fatalf("K holds %q, want %q", got, wantKW)
			}
		})
	}
}

// TestOfflineEvent checks the boot attribution: the journal's "offline"
// event carries the milliseconds of each offline step.
func TestOfflineEvent(t *testing.T) {
	cfg, err := parseConfig(strings.Fields("-dataset Citations -scale 0.25 -eta 0.5 -seed 7"))
	if err != nil {
		t.Fatal(err)
	}
	from := obs.DefaultJournal().NextSeq()
	if _, _, err := offline(cfg); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ev := range obs.DefaultJournal().Since(from) {
		if ev.Type != "offline" {
			continue
		}
		found = true
		for _, key := range []string{"draw_ms", "pivot_ms", "detect_ms", "index_ms"} {
			v, ok := ev.Fields[key].(float64)
			if !ok || v < 0 {
				t.Errorf("offline event field %s = %v (%T), want milliseconds", key, ev.Fields[key], ev.Fields[key])
			}
		}
	}
	if !found {
		t.Fatal("no offline event journaled")
	}
}
