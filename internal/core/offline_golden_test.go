package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"terids/internal/dataset"
	"terids/internal/pivot"
	"terids/internal/repository"
	"terids/internal/rules"
)

// goldenOffline pins Algorithm 1's offline phase on the repositories the
// benchmark servers and the test fixtures draw (ξ = 0.3, m = 1): every
// attribute's chosen pivot texts, main pivot first, and the SHA-256 of both
// mined rule sets. A change that only makes the offline phase cheaper must
// leave every entry alone.
var goldenOffline = []struct {
	name    string
	profile string
	scale   float64
	eta     float64
	seed    int64
	pivots  [][]string
	rules   string
	ddRules string
}{
	{
		name: "mixed-default", profile: "Citations", scale: 20, eta: 0.025, seed: 1,
		pivots: [][]string{
			{"ti11 ti8 ti101 ti96 ti286 ti118 ti2 ti3 ti292 ti0 ti4", "ti79 ti135 ti2 ti16 ti63 ti37 ti23 ti1 ti17 ti0", "ti65 ti12 ti5 ti91 ti0 ti167 ti38 ti2 ti4 ti137"},
			{"au1 au0 au167", "au2 au0 au191 au92 au5", "au61 au17 au82 au1"},
			{"ve1 ve0", "ve1 ve3 ve8 ve2"},
			{"ye0", "ye4", "ye2"},
		},
		rules:   "9cb48ae6d21394bc4f96af79afd2e9f67beec4f507f164a3a4ade34c3a8bde24",
		ddRules: "de25e90083ff4f63d2f2d5031a03befc70161c4d36772f82a64d7ccecc77397e",
	},
	{
		name: "impute-heavy", profile: "Citations", scale: 10, eta: 0.1, seed: 1,
		pivots: [][]string{
			{"ti6 ti1 ti38 ti0 ti49 ti150 ti3 ti59 ti23 ti133", "ti79 ti135 ti2 ti16 ti63 ti193 ti199 ti1 ti17 ti0", "ti22 ti13 ti8 ti0 ti11 ti15 ti9 ti120 ti58 ti77 ti241"},
			{"au34 au1 au15 au0", "au16 au6 au36 au8 au0"},
			{"ve2 ve0 ve1", "ve3 ve8 ve6 ve0"},
			{"ye0", "ye3", "ye2"},
		},
		rules:   "1d030e0de38bd57f082bf745304ab4264939130dd753e7a9f338c021f3afd8ed",
		ddRules: "c1aa8eef113adb7ee19f05057efaa49ac42796502fba6be4834af1775f5c2a13",
	},
	{
		name: "resolve-heavy", profile: "EBooks", scale: 3, eta: 0.05, seed: 1,
		pivots: [][]string{
			{"ti286 ti5 ti0 ti3", "ti4 ti28 ti144 ti0 ti1 ti2", "ti7 ti2 ti8"},
			{"au0 au3", "au7 au143 au1", "au0 au29 au2"},
			{"ge1 ge0 ge2"},
			{"de130 de180 de130 de37 de2 de435 de268 de11 de526 de560 de0 de45 de34 de278 de520 de329 de6 de9 de569 de157 de17 de96 de1 de480 de25 de516 de257 de19 de426 de61", "de261 de235 de327 de58 de78 de64 de652 de15 de2 de16 de50 de416 de106 de9 de24 de18 de516 de26 de623 de534 de0 de25 de489 de88", "de491 de188 de6 de309 de8 de85 de357 de52 de3 de2 de148 de48 de245 de368 de100 de242 de0 de18 de166"},
		},
		rules:   "e5ef1f589ce3fc6ee581b4b140deea27eabafc1e47216be876154cc607e1df91",
		ddRules: "aca326eec127df6b57b8ab548be901e0b54c9b65acc6eb7a0e7f49aae9b16114",
	},
	{
		name: "golden-streams/Citations", profile: "Citations", scale: 1, eta: 0.5, seed: 1,
		pivots: [][]string{
			{"ti7 ti2 ti257 ti268 ti6 ti0 ti163 ti1", "ti224 ti145 ti82 ti0 ti7 ti110 ti285 ti1 ti38 ti90", "ti286 ti1 ti14 ti139 ti17 ti29 ti261 ti255 ti192"},
			{"au1 au0 au164 au45", "au4 au6 au0 au75"},
			{"ve0 ve1 ve2", "ve1 ve5 ve13 ve18"},
			{"ye2", "ye14", "ye7"},
		},
		rules:   "cc525781f4c010912000d92481c6058a74a14ba556e358d47a6d41f5bc968bac",
		ddRules: "031a4b70e79b6dfc8dd051e9f545e6eaf89429bebf785d9d533c9df78e5d98ca",
	},
	{
		name: "golden-streams/EBooks", profile: "EBooks", scale: 1, eta: 0.5, seed: 1,
		pivots: [][]string{
			{"ti132 ti0 ti2", "ti1 ti0 ti236", "ti3 ti23 ti0 ti28"},
			{"au0 au1 au43", "au8 au2 au3", "au46 au31 au0 au5"},
			{"ge1 ge0 ge3"},
			{"de70 de153 de56 de60 de322 de33 de28 de227 de520 de61 de396 de205 de524 de339 de192 de0 de17 de258 de665 de4 de2 de335 de63 de204 de207 de54", "de231 de78 de2 de382 de22 de204 de298 de173 de44 de3 de300 de120 de498 de0 de492 de502 de15 de262 de382 de518 de4 de447 de31 de7 de18", "de60 de5 de640 de207 de460 de474 de3 de389 de686 de155 de40 de207 de0 de21 de297 de9 de254 de654 de55 de2 de286 de461 de179 de10 de380 de118 de217 de1"},
		},
		rules:   "8b5e724836deb843995c977b3a0ce2cd383f7e1e3b27769468ee31159942a4e8",
		ddRules: "6cece77937913b944b72832e30a3c57fd3be7ac70e1deb9512c55753cb9986f9",
	},
	{
		name: "engine-fixture", profile: "Citations", scale: 0.25, eta: 0.5, seed: 7,
		pivots: [][]string{
			{"ti16 ti17 ti249 ti146 ti110 ti37 ti35 ti0", "ti21 ti12 ti2 ti22 ti130 ti284 ti79 ti135 ti10 ti59 ti40"},
			{"au71 au152 au76 au0 au27", "au42 au30 au4 au144", "au35 au177 au24 au22 au150"},
			{"ve0 ve26 ve11", "ve1 ve19 ve2"},
			{"ye0", "ye6", "ye18"},
		},
		rules:   "c0dd62aa3f7a73b344e895e23261b6c493b0a16dd7f1eab231b21ed90b4da0fc",
		ddRules: "cd9314945fd8bfc84d4ce1edc2804887b16e97e105ada4fe682f36bc117e045b",
	},
	{
		name: "small", profile: "Citations", scale: 0.2, eta: 0.5, seed: 1,
		pivots: [][]string{
			{"ti265 ti132 ti57 ti54 ti141 ti1 ti7 ti27 ti79 ti198", "ti194 ti52 ti154 ti49 ti240 ti275 ti0 ti188 ti232 ti56 ti26", "ti104 ti259 ti98 ti103 ti50 ti109 ti72 ti275 ti190 ti3 ti183"},
			{"au0 au86 au24 au50 au36", "au129 au155 au28 au6"},
			{"ve0 ve1", "ve0 ve2 ve27"},
			{"ye0", "ye1", "ye7"},
		},
		rules:   "564f92b9495752d9f80440f5d6c2a16d7e19aedc247699ea5db91e357b436c0e",
		ddRules: "4654d88efe5397ac092012280c693ee0193cf9ad6576609d6509e7b06cb45ac8",
	},
}

// ruleDigest hashes a rule set in mining order: each rule's paper notation
// and its dependent interval at full precision.
func ruleDigest(set *rules.Set) string {
	h := sha256.New()
	for _, r := range set.All() {
		fmt.Fprintf(h, "%s %.17g %.17g\n", r, r.DepMin, r.DepMax)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestOfflinePhaseGolden(t *testing.T) {
	for _, g := range goldenOffline {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			prof, err := dataset.ProfileByName(g.profile)
			if err != nil {
				t.Fatal(err)
			}
			opt := dataset.Options{
				Scale: g.scale, RepoRatio: g.eta, MissingRate: 0.3, MissingAttrs: 1, Seed: g.seed,
			}
			data, err := dataset.Generate(prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			// A server boots from the repository-only draw: it must reach
			// the same pivots and rules as the full dataset's R.
			repo, err := dataset.GenerateRepo(prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				draw string
				repo *repository.Repository
			}{{"Generate", data.Repo}, {"GenerateRepo", repo}} {
				sh, err := Prepare(r.repo, DefaultPrepareConfig(data.Keywords))
				if err != nil {
					t.Fatal(err)
				}
				if len(sh.Sel.PerAttr) != len(g.pivots) {
					t.Fatalf("%s: %d attributes, want %d", r.draw, len(sh.Sel.PerAttr), len(g.pivots))
				}
				for x, ap := range sh.Sel.PerAttr {
					if !slices.Equal(ap.Texts, g.pivots[x]) {
						t.Errorf("%s: |R| = %d, attribute %d: pivots %q", r.draw, r.repo.Len(), x, ap.Texts)
					}
				}
				if got := ruleDigest(sh.Rules); got != g.rules {
					t.Errorf("%s: %d banded rules hash to %s, want %s", r.draw, sh.Rules.Len(), got, g.rules)
				}
				if got := ruleDigest(sh.DDRules); got != g.ddRules {
					t.Errorf("%s: %d cumulative rules hash to %s, want %s", r.draw, sh.DDRules.Len(), got, g.ddRules)
				}
			}
		})
	}
}

// TestPivotSelectDeterministic runs Select repeatedly on resolve-heavy's
// repository, where two candidate main pivots of attribute 2 have equal
// bucket-count multisets: every run must choose the same pivots.
func TestPivotSelectDeterministic(t *testing.T) {
	prof, err := dataset.ProfileByName("EBooks")
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Generate(prof, dataset.Options{Scale: 3, RepoRatio: 0.05, MissingRate: 0.3, MissingAttrs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	render := func(sel *pivot.Selection) string {
		var s string
		for _, ap := range sel.PerAttr {
			s += fmt.Sprintf("%q@%v;", ap.Texts, ap.Entropy)
		}
		return s
	}
	seen := map[string]int{}
	for i := 0; i < 20; i++ {
		sel, err := pivot.Select(data.Repo, pivot.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		seen[render(sel)]++
	}
	if len(seen) != 1 {
		t.Fatalf("20 runs chose %d different selections: %v", len(seen), seen)
	}
}
