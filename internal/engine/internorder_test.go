package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"terids/internal/core"
	"terids/internal/dataset"
	"terids/internal/repository"
	"terids/internal/snapshot"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Token IDs are handed out in first-seen order by a dictionary that lives as
// long as the process, so "nothing observable depends on ID order" can only
// be tested across processes: the test binary re-execs itself (see TestMain)
// with internOrderEnv naming an order and internOrderFile naming the raw
// dataset, and the child prints what it observed.
const (
	internOrderEnv  = "TERIDS_INTERN_ORDER"
	internOrderFile = "TERIDS_INTERN_ORDER_FILE"
)

// rawDataset is a dataset before any of it has been tokenised.
type rawDataset struct {
	Attrs    []string
	Keywords []string
	Repo     [][]string
	Stream   []rawArrival
}

type rawArrival struct {
	RID    string
	Stream int
	Values []string
}

// observed is everything of one run that the outside can see.
type observed struct {
	// Pairs hashes the result stream: per arrival its RID and every emitted
	// pair's RIDs and probability.
	Pairs string
	// Homes lists, per shard, how many residency insertions it took over the
	// run and which tuples reside in it at the end.
	Homes []string
	// Checkpoint hashes the encoded barrier checkpoint.
	Checkpoint string
	// KeywordIDsInTextOrder reports whether the keywords' IDs happen to
	// ascend with their text — the one order in which ID order could pass
	// for text order unnoticed.
	KeywordIDsInTextOrder bool
}

// observeRun tokenises raw in the named order — "stream-first" interns the
// keywords ascending, then the stream, then the repository; "repo-first" the
// keywords descending, then the repository, then the stream — and runs the
// engine over it.
func observeRun(raw *rawDataset, order string) (*observed, error) {
	schema, err := tuple.NewSchema(raw.Attrs...)
	if err != nil {
		return nil, err
	}
	var samples, stream []*tuple.Record
	buildRepo := func() error {
		for i, vals := range raw.Repo {
			r, err := tuple.NewRecord(schema, fmt.Sprintf("repo%05d", i), 0, 0, vals)
			if err != nil {
				return err
			}
			samples = append(samples, r)
		}
		return nil
	}
	buildStream := func() error {
		for i, a := range raw.Stream {
			r, err := tuple.NewRecord(schema, a.RID, a.Stream, int64(i), a.Values)
			if err != nil {
				return err
			}
			stream = append(stream, r)
		}
		return nil
	}
	kws := slices.Clone(raw.Keywords)
	sort.Strings(kws)
	steps := []func() error{buildStream, buildRepo}
	if order == "repo-first" {
		slices.Reverse(kws)
		slices.Reverse(steps)
	} else if order != "stream-first" {
		return nil, fmt.Errorf("unknown intern order %q", order)
	}
	for _, kw := range kws {
		tokens.New(kw)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	repo, err := repository.Build(schema, samples)
	if err != nil {
		return nil, err
	}
	sh, err := core.Prepare(repo, core.DefaultPrepareConfig(raw.Keywords))
	if err != nil {
		return nil, err
	}
	pairs := sha256.New()
	eng, err := New(sh, Config{
		Core: core.Config{
			Keywords: raw.Keywords, Gamma: 0.5 * float64(schema.D()), Alpha: 0.4,
			WindowSize: 50, Streams: 2,
		},
		Shards: 4,
		OnResult: func(res Result) {
			fmt.Fprintf(pairs, "%s:", res.RID)
			for _, p := range res.Pairs {
				fmt.Fprintf(pairs, "%s,%s,%.17g;", p.A.RID, p.B.RID, p.Prob)
			}
			fmt.Fprintln(pairs)
		},
	})
	if err != nil {
		return nil, err
	}
	if err := eng.SubmitBatch(stream); err != nil {
		return nil, err
	}
	ckpt, err := eng.Checkpoint()
	if err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	if err := snapshot.Encode(&enc, ckpt); err != nil {
		return nil, err
	}
	out := &observed{
		Checkpoint:            fmt.Sprintf("%x", sha256.Sum256(enc.Bytes())),
		KeywordIDsInTextOrder: slices.IsSorted(sh.Keywords.SortedByText()),
	}
	for _, s := range eng.shards {
		rids := make([]string, 0, len(s.seqOf))
		for rid := range s.seqOf {
			rids = append(rids, rid)
		}
		sort.Strings(rids)
		out.Homes = append(out.Homes, fmt.Sprintf("%d inserts; %s", s.inserts.Load(), strings.Join(rids, " ")))
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	out.Pairs = fmt.Sprintf("%x", pairs.Sum(nil))
	return out, nil
}

// internOrderChild is the re-exec'd side: observe one run, print it as JSON.
func internOrderChild(order string) error {
	data, err := os.ReadFile(os.Getenv(internOrderFile))
	if err != nil {
		return err
	}
	var raw rawDataset
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	obs, err := observeRun(&raw, order)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(obs)
}

// TestInternOrderInvisible runs the same dataset in two processes that see
// its tokens in different orders and requires the same pairs, the same shard
// homes and the same checkpoint bytes from both.
func TestInternOrderInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two child processes")
	}
	prof, err := dataset.ProfileByName("Citations")
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Generate(prof, dataset.Options{
		Scale: 0.25, MissingRate: 0.3, MissingAttrs: 1, RepoRatio: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	values := func(r *tuple.Record) []string {
		out := make([]string, r.D())
		for j := range out {
			out[j] = r.Value(j)
		}
		return out
	}
	raw := rawDataset{Attrs: data.Schema.Attrs(), Keywords: data.Keywords}
	for _, s := range data.Repo.Samples() {
		raw.Repo = append(raw.Repo, values(s))
	}
	for _, r := range data.Stream {
		raw.Stream = append(raw.Stream, rawArrival{RID: r.RID, Stream: r.Stream, Values: values(r)})
	}
	file := filepath.Join(t.TempDir(), "dataset.json")
	blob, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, blob, 0o600); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(order string) observed {
		t.Helper()
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), internOrderEnv+"="+order, internOrderFile+"="+file)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("child %s: %v", order, err)
		}
		var obs observed
		if err := json.Unmarshal(stdout, &obs); err != nil {
			t.Fatalf("child %s printed %q: %v", order, stdout, err)
		}
		return obs
	}
	a, b := run("stream-first"), run("repo-first")
	if !a.KeywordIDsInTextOrder || b.KeywordIDsInTextOrder {
		t.Fatalf("keyword IDs ascend with text: stream-first %v (want true), repo-first %v (want false): the two runs do not differ where it matters",
			a.KeywordIDsInTextOrder, b.KeywordIDsInTextOrder)
	}
	if len(a.Homes) != 4 || strings.HasPrefix(a.Homes[0], "0 inserts") {
		t.Fatalf("homes observed nothing: %q", a.Homes)
	}
	if a.Pairs != b.Pairs {
		t.Errorf("result streams differ: %s vs %s", a.Pairs, b.Pairs)
	}
	if !slices.Equal(a.Homes, b.Homes) {
		t.Errorf("shard homes differ:\n%q\n%q", a.Homes, b.Homes)
	}
	if a.Checkpoint != b.Checkpoint {
		t.Errorf("checkpoint bytes differ: %s vs %s", a.Checkpoint, b.Checkpoint)
	}
}
