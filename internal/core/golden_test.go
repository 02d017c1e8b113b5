package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"terids/internal/dataset"
)

// goldenStreams pins the operator's output: the SHA-256 of core.Processor's
// whole result stream — per arrival its RID, then every emitted pair's RIDs
// and probability at %.17g — over dataset seed 1 at Table 5's defaults
// (w=200, γ=0.5·d, α=0.5). The hashes were recorded at the last commit whose
// token sets were sorted strings; a change that only makes the operator
// cheaper must leave every one of them alone.
var goldenStreams = []struct {
	profile string
	xi      float64
	sha     string
}{
	{"Citations", 0, "0d16a022836beb888f1f7c7e120f45d312d404b4eb4fe2d2e4ff90b2da7482be"},
	{"Citations", 0.3, "11fb5728e02deb6f46aa47504259add7c27fca2f7959a880fcaea1a4e704d14f"},
	{"Citations", 0.8, "3af38836bd24c25bd03ce150ff4f51834c0f334039d91bfcfa0cce2b42aa80f7"},
	{"EBooks", 0, "9db5043a1beb67b724d9e44e160211038a7a341fd4a83e93f5c10d7f18601861"},
	{"EBooks", 0.3, "7c1845615366420049cbf7c6e6c88fc34bfad1796de06bc56e1fa425e7ac2078"},
	{"EBooks", 0.8, "3c98b568133934c8c29b6abe9bf164965c4520903274b369fc7c6750d878dc61"},
}

func TestGoldenResultStreams(t *testing.T) {
	for _, g := range goldenStreams {
		t.Run(fmt.Sprintf("%s/xi=%v", g.profile, g.xi), func(t *testing.T) {
			t.Parallel()
			prof, err := dataset.ProfileByName(g.profile)
			if err != nil {
				t.Fatal(err)
			}
			opt := dataset.DefaultOptions()
			opt.Seed, opt.MissingRate = 1, g.xi
			data, err := dataset.Generate(prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := Prepare(data.Repo, DefaultPrepareConfig(data.Keywords))
			if err != nil {
				t.Fatal(err)
			}
			proc, err := NewProcessor(sh, Config{
				Keywords: data.Keywords, Gamma: 0.5 * float64(sh.Schema.D()), Alpha: 0.5,
				WindowSize: 200, Streams: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			emitted := 0
			for _, r := range data.Stream {
				pairs, err := proc.Advance(r)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s:", r.RID)
				for _, p := range pairs {
					fmt.Fprintf(h, "%s,%s,%.17g;", p.A.RID, p.B.RID, p.Prob)
				}
				fmt.Fprintln(h)
				emitted += len(pairs)
			}
			if emitted == 0 {
				t.Fatal("no pair emitted: the hash would pin nothing")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha {
				t.Errorf("result stream of %d arrivals, %d pairs hashes to %s, want %s", len(data.Stream), emitted, got, g.sha)
			}
		})
	}
}
