// Package dataset generates the synthetic stand-ins for the five evaluation
// datasets of Section 6.1 (Citations, Anime, Bikes, EBooks, Songs). The
// real datasets are not redistributable/offline, so each profile matches
// the shape parameters that drive the paper's measured effects: number of
// attributes, relative source sizes, per-attribute token-set sizes (EBooks
// gets a long description), duplicate rate, and topic keyword density.
// Generation is deterministic per seed; ground truth is the Equation (2)
// predicate evaluated on the complete (pre-corruption) records, mirroring
// how the paper derives ground truth for Anime/Bikes/EBooks.
package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"terids/internal/metrics"
	"terids/internal/repository"
	"terids/internal/tokens"
	"terids/internal/tuple"
)

// Profile describes one synthetic dataset's shape.
type Profile struct {
	Name string
	// Attrs are the schema attribute names.
	Attrs []string
	// SourceA/SourceB are the two stream lengths at Scale = 1.
	SourceA, SourceB int
	// Entities is the number of distinct real-world entities at Scale = 1.
	Entities int
	// TokensPerAttr is the mean token count of each attribute value.
	TokensPerAttr []int
	// VocabPerAttr is each attribute's vocabulary size.
	VocabPerAttr []int
	// PerturbRate is the per-token probability that a copy of an entity
	// replaces or drops the token (drives near-duplicate distances).
	PerturbRate float64
	// Topics is the keyword pool; TopicAttr is the attribute carrying
	// topic keywords; TopicRate is the fraction of entities that carry
	// one.
	Topics    []string
	TopicAttr int
	TopicRate float64
}

// Profiles returns the five dataset profiles, scaled down ~10x from the
// paper's sizes (Songs ~500x; its role is stressing repository size, which
// the η sweeps cover).
func Profiles() []Profile {
	return []Profile{
		{
			Name:    "Citations",
			Attrs:   []string{"title", "authors", "venue", "year"},
			SourceA: 260, SourceB: 230, Entities: 240,
			TokensPerAttr: []int{8, 5, 3, 1},
			VocabPerAttr:  []int{300, 200, 40, 30},
			PerturbRate:   0.12,
			Topics:        []string{"database", "streaming", "learning"},
			TopicAttr:     0, TopicRate: 0.12,
		},
		{
			Name:    "Anime",
			Attrs:   []string{"title", "studio", "genre", "episodes"},
			SourceA: 400, SourceB: 400, Entities: 350,
			TokensPerAttr: []int{5, 2, 3, 1},
			VocabPerAttr:  []int{250, 60, 25, 60},
			PerturbRate:   0.15,
			Topics:        []string{"fantasy", "mecha", "sports"},
			TopicAttr:     2, TopicRate: 0.14,
		},
		{
			Name:    "Bikes",
			Attrs:   []string{"model", "brand", "price", "city"},
			SourceA: 480, SourceB: 900, Entities: 500,
			TokensPerAttr: []int{4, 2, 2, 2},
			VocabPerAttr:  []int{200, 40, 120, 50},
			PerturbRate:   0.14,
			Topics:        []string{"cruiser", "scooter", "touring"},
			TopicAttr:     0, TopicRate: 0.12,
		},
		{
			Name:    "EBooks",
			Attrs:   []string{"title", "author", "genre", "description"},
			SourceA: 650, SourceB: 1410, Entities: 700,
			TokensPerAttr: []int{6, 3, 2, 26}, // long descriptions: the paper's slowest dataset
			VocabPerAttr:  []int{300, 150, 20, 700},
			PerturbRate:   0.12,
			Topics:        []string{"romance", "thriller", "history"},
			TopicAttr:     2, TopicRate: 0.12,
		},
		{
			Name:    "Songs",
			Attrs:   []string{"title", "artist", "album", "year"},
			SourceA: 2000, SourceB: 2000, Entities: 1800,
			TokensPerAttr: []int{5, 3, 4, 1},
			VocabPerAttr:  []int{600, 300, 400, 40},
			PerturbRate:   0.10,
			Topics:        []string{"rock", "jazz", "electronic"},
			TopicAttr:     0, TopicRate: 0.12,
		},
	}
}

// ProfileByName finds a profile case-insensitively.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q", name)
}

// Options tunes generation.
type Options struct {
	// Scale multiplies all sizes (default 1).
	Scale float64
	// MissingRate is ξ: the fraction of stream tuples made incomplete.
	MissingRate float64
	// MissingAttrs is m: how many attributes each incomplete tuple loses.
	MissingAttrs int
	// RepoRatio is η: repository size relative to total stream length.
	RepoRatio float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultOptions mirrors Table 5's bold defaults: ξ = 0.3, m = 1, η = 0.5.
func DefaultOptions() Options {
	return Options{Scale: 1, MissingRate: 0.3, MissingAttrs: 1, RepoRatio: 0.5, Seed: 1}
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.MissingAttrs <= 0 {
		o.MissingAttrs = 1
	}
	if o.RepoRatio <= 0 {
		o.RepoRatio = 0.5
	}
}

// Data is one generated dataset instance.
type Data struct {
	Profile Profile
	Schema  *tuple.Schema
	// Repo is the static complete repository R.
	Repo *repository.Repository
	// Stream is the merged two-stream arrival sequence with missing values
	// injected (stream 0 = source A, stream 1 = source B).
	Stream []*tuple.Record
	// Complete holds each stream record's pre-corruption version, by RID.
	Complete map[string]*tuple.Record
	// Keywords is the profile's topic pool (the query keyword set K).
	Keywords []string
}

// Generate builds a dataset instance.
func Generate(p Profile, opt Options) (*Data, error) {
	return draw(p, opt, true)
}

// GenerateRepo draws only the repository R of Generate(p, opt), sample for
// sample: it makes the same rng calls in the same order, but builds no
// stream record. R is all the offline phase reads, so a server boots from
// this rather than from Generate.
func GenerateRepo(p Profile, opt Options) (*repository.Repository, error) {
	data, err := draw(p, opt, false)
	if err != nil {
		return nil, err
	}
	return data.Repo, nil
}

// draw is the one definition of the generator's rng sequence: the
// vocabulary and entities, each stream tuple's entity, perturbation and
// missing-attribute draws, the arrival shuffle, then R's samples. R's draws
// come after the stream's, so they depend on every stream draw; without
// keepStream those draws are made and discarded, and Data.Stream and
// Data.Complete stay nil.
func draw(p Profile, opt Options, keepStream bool) (*Data, error) {
	opt.fill()
	schema, err := tuple.NewSchema(p.Attrs...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g := &generator{p: p, opt: opt, schema: schema, rng: rng}
	g.buildVocab()
	g.buildEntities()

	data := &Data{
		Profile:  p,
		Schema:   schema,
		Keywords: append([]string(nil), p.Topics...),
	}
	if keepStream {
		data.Complete = make(map[string]*tuple.Record)
	}

	// Streams: each source samples entities (with replacement beyond the
	// entity count, giving duplicates within and across sources).
	nA := scale(p.SourceA, opt.Scale)
	nB := scale(p.SourceB, opt.Scale)
	var all []*tuple.Record
	var toks [][]string
	seq := int64(0)
	for stream, n := range []int{nA, nB} {
		tag := [...]string{"a", "b"}[stream]
		for i := 0; i < n; i++ {
			ent := g.pickEntity()
			toks = g.perturb(ent, toks)
			lost := g.missing()
			if keepStream {
				rid := fmt.Sprintf("%s%s%05d", p.Name[:1], tag, i)
				complete := g.copyOf(ent, toks, rid, stream, seq)
				data.Complete[rid] = complete
				all = append(all, g.corrupt(complete, lost))
			}
			seq++
		}
	}
	// Interleave by shuffling arrival order, then reassign Seq in order.
	// The shuffle's draws depend only on the stream length, not on swap.
	swap := func(i, j int) {}
	if keepStream {
		swap = func(i, j int) { all[i], all[j] = all[j], all[i] }
	}
	rng.Shuffle(nA+nB, swap)
	for i, r := range all {
		r.Seq = int64(i)
		data.Complete[r.RID].Seq = int64(i)
	}
	data.Stream = all

	// Repository: complete perturbed copies of entities (historical data).
	nRepo := int(float64(nA+nB) * opt.RepoRatio)
	if nRepo < 4 {
		nRepo = 4
	}
	samples := make([]*tuple.Record, 0, nRepo)
	for i := 0; i < nRepo; i++ {
		ent := g.pickEntity()
		toks = g.perturb(ent, toks)
		rid := fmt.Sprintf("%sr%05d", p.Name[:1], i)
		samples = append(samples, g.copyOf(ent, toks, rid, 0, 0))
	}
	repo, err := repository.Build(schema, samples)
	if err != nil {
		return nil, err
	}
	data.Repo = repo
	return data, nil
}

func scale(n int, s float64) int {
	out := int(float64(n) * s)
	if out < 2 {
		out = 2
	}
	return out
}

type generator struct {
	p      Profile
	opt    Options
	schema *tuple.Schema
	rng    *rand.Rand
	vocab  [][]string
	// entities[e][x] is entity e's canonical token list on attribute x.
	entities [][][]string
	// hasTopic[e] marks topic-bearing entities.
	hasTopic []bool
}

func (g *generator) buildVocab() {
	g.vocab = make([][]string, len(g.p.Attrs))
	for x := range g.p.Attrs {
		words := make([]string, g.p.VocabPerAttr[x])
		for i := range words {
			words[i] = fmt.Sprintf("%s%d", attrPrefix(g.p.Attrs[x]), i)
		}
		g.vocab[x] = words
	}
}

func attrPrefix(attr string) string {
	if len(attr) > 2 {
		return attr[:2]
	}
	return attr
}

// zipfIndex draws a skewed index in [0, n): low indexes are more frequent,
// giving realistic repeated values (and frequent constants for CDD
// conditioning).
func (g *generator) zipfIndex(n int) int {
	u := g.rng.Float64()
	return int(u * u * float64(n))
}

func (g *generator) buildEntities() {
	n := scale(g.p.Entities, g.opt.Scale)
	g.entities = make([][][]string, n)
	g.hasTopic = make([]bool, n)
	for e := 0; e < n; e++ {
		attrs := make([][]string, len(g.p.Attrs))
		for x := range g.p.Attrs {
			k := g.p.TokensPerAttr[x]
			// +/- 30% size jitter, at least 1 token.
			k = k - k/3 + g.rng.Intn(1+2*k/3)
			if k < 1 {
				k = 1
			}
			toks := make([]string, 0, k)
			seen := map[string]bool{}
			for len(toks) < k {
				w := g.vocab[x][g.zipfIndex(len(g.vocab[x]))]
				if !seen[w] {
					seen[w] = true
					toks = append(toks, w)
				}
			}
			attrs[x] = toks
		}
		if g.rng.Float64() < g.p.TopicRate {
			g.hasTopic[e] = true
			topic := g.p.Topics[g.rng.Intn(len(g.p.Topics))]
			attrs[g.p.TopicAttr] = append(attrs[g.p.TopicAttr], topic)
		}
		g.entities[e] = attrs
	}
}

func (g *generator) pickEntity() int {
	return g.zipfIndex(len(g.entities))
}

// perturb draws a perturbed copy of entity ent: out[x] becomes attribute
// x's tokens. out is reused across calls; the copy is at least one token
// per attribute.
func (g *generator) perturb(ent int, out [][]string) [][]string {
	if out == nil {
		out = make([][]string, len(g.p.Attrs))
	}
	for x := range g.p.Attrs {
		toks := g.entities[ent][x]
		cp := out[x][:0]
		for _, tok := range toks {
			switch {
			case g.rng.Float64() < g.p.PerturbRate/2:
				// Drop the token.
			case g.rng.Float64() < g.p.PerturbRate:
				cp = append(cp, g.vocab[x][g.rng.Intn(len(g.vocab[x]))])
			default:
				cp = append(cp, tok)
			}
		}
		if len(cp) == 0 {
			cp = append(cp, toks[0])
		}
		out[x] = cp
	}
	return out
}

// copyOf materializes entity ent's perturbed copy toks (from perturb) as a
// complete record.
func (g *generator) copyOf(ent int, toks [][]string, rid string, stream int, seq int64) *tuple.Record {
	vals := make([]string, len(toks))
	for x, t := range toks {
		vals[x] = strings.Join(t, " ")
	}
	rec := tuple.MustRecord(g.schema, rid, stream, seq, vals)
	rec.EntityID = ent
	return rec
}

// missing draws, per ξ and m, which attributes a stream tuple loses: nil
// when it stays complete.
func (g *generator) missing() []int {
	if g.rng.Float64() >= g.opt.MissingRate {
		return nil
	}
	d := len(g.p.Attrs)
	m := g.opt.MissingAttrs
	if m > d-1 {
		m = d - 1 // keep at least one attribute for rules to hold on to
	}
	return g.rng.Perm(d)[:m]
}

// corrupt copies a complete record with the lost attributes (from missing)
// made missing.
func (g *generator) corrupt(complete *tuple.Record, lost []int) *tuple.Record {
	vals := values(complete)
	for _, j := range lost {
		vals[j] = tuple.Missing
	}
	cp := tuple.MustRecord(g.schema, complete.RID, complete.Stream, complete.Seq, vals)
	cp.EntityID = complete.EntityID
	return cp
}

func values(r *tuple.Record) []string {
	out := make([]string, r.D())
	for j := 0; j < r.D(); j++ {
		out[j] = r.Value(j)
	}
	return out
}

// TruthPairs computes the ground-truth matching pairs for a window size w,
// similarity threshold gamma, and the dataset's keywords: pairs of
// cross-stream tuples that co-exist in some pair of windows whose COMPLETE
// versions satisfy the Equation (2) predicate (topic containment plus
// similarity above gamma). This mirrors the paper's predicate-derived
// ground truth.
func (d *Data) TruthPairs(w int, gamma float64) map[metrics.PairKey]bool {
	kw := tokens.New(d.Keywords...)
	truth := make(map[metrics.PairKey]bool)
	// Per-stream ring of live records, replayed in arrival order.
	live := [][]*tuple.Record{nil, nil}
	for _, r := range d.Stream {
		mine := r.Stream
		other := 1 - mine
		rc := d.Complete[r.RID]
		for _, o := range live[other] {
			oc := d.Complete[o.RID]
			if !rc.ContainsAnyKeyword(kw) && !oc.ContainsAnyKeyword(kw) {
				continue
			}
			if tuple.Sim(rc, oc) > gamma {
				truth[metrics.Key(r.RID, o.RID)] = true
			}
		}
		live[mine] = append(live[mine], r)
		if len(live[mine]) > w {
			live[mine] = live[mine][1:]
		}
	}
	return truth
}

// Stats summarizes a generated dataset for Table 4 style reporting.
type Stats struct {
	Name             string
	SourceA, SourceB int
	RepoSize         int
	Incomplete       int
	TruthMatches     int
}

// ComputeStats derives Table 4 style statistics under the given window and
// gamma.
func (d *Data) ComputeStats(w int, gamma float64) Stats {
	st := Stats{Name: d.Profile.Name, RepoSize: d.Repo.Len()}
	for _, r := range d.Stream {
		if r.Stream == 0 {
			st.SourceA++
		} else {
			st.SourceB++
		}
		if !r.IsComplete() {
			st.Incomplete++
		}
	}
	st.TruthMatches = len(d.TruthPairs(w, gamma))
	return st
}
