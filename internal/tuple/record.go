package tuple

import (
	"fmt"

	"terids/internal/tokens"
)

// Record is one tuple r_i of an incomplete data stream: a profile identifier
// plus d attribute values, any of which may be missing (Definition 1).
// Token sets are precomputed at construction. Records are immutable after
// creation.
type Record struct {
	// RID is the unique profile identifier r_id.
	RID string
	// Stream identifies the originating data stream iDS_y (0-based).
	Stream int
	// Seq is the arrival timestamp (position in the merged stream order).
	Seq int64
	// EntityID is the ground-truth entity label for evaluation, or -1 when
	// unknown. It is never consulted by the resolution algorithms.
	EntityID int

	schema *Schema
	vals   []string
	miss   []bool
	toks   []tokens.Set
	nMiss  int
}

// NewRecord builds a record over schema. values must have exactly schema.D()
// entries; the Missing marker ("-") or an empty string denotes a missing
// attribute.
func NewRecord(schema *Schema, rid string, stream int, seq int64, values []string) (*Record, error) {
	return newRecord(schema, rid, stream, seq, values, tokens.Tokenize)
}

// newRecord is the one record constructor; tokenize turns a present
// attribute value into its token set.
func newRecord(schema *Schema, rid string, stream int, seq int64, values []string, tokenize func(string) tokens.Set) (*Record, error) {
	if schema == nil {
		return nil, fmt.Errorf("tuple: nil schema")
	}
	if len(values) != schema.D() {
		return nil, fmt.Errorf("tuple: record %q has %d values, schema has %d attributes", rid, len(values), schema.D())
	}
	r := &Record{
		RID:      rid,
		Stream:   stream,
		Seq:      seq,
		EntityID: -1,
		schema:   schema,
		vals:     append([]string(nil), values...),
		miss:     make([]bool, len(values)),
		toks:     make([]tokens.Set, len(values)),
	}
	for j, v := range r.vals {
		if v == Missing || v == "" {
			r.vals[j] = Missing
			r.miss[j] = true
			r.nMiss++
			continue
		}
		r.toks[j] = tokenize(v)
	}
	return r, nil
}

// MustRecord is NewRecord that panics on error; for tests and fixtures.
func MustRecord(schema *Schema, rid string, stream int, seq int64, values []string) *Record {
	r, err := NewRecord(schema, rid, stream, seq, values)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the record's schema.
func (r *Record) Schema() *Schema { return r.schema }

// D returns the number of attributes.
func (r *Record) D() int { return len(r.vals) }

// Value returns the raw text of attribute j (Missing if absent).
func (r *Record) Value(j int) string { return r.vals[j] }

// IsMissing reports whether attribute j is missing.
func (r *Record) IsMissing(j int) bool { return r.miss[j] }

// IsComplete reports whether no attribute is missing.
func (r *Record) IsComplete() bool { return r.nMiss == 0 }

// MissingCount returns the number of missing attributes.
func (r *Record) MissingCount() int { return r.nMiss }

// MissingAttrs returns the indexes of all missing attributes, in order.
func (r *Record) MissingAttrs() []int {
	if r.nMiss == 0 {
		return nil
	}
	out := make([]int, 0, r.nMiss)
	for j, m := range r.miss {
		if m {
			out = append(out, j)
		}
	}
	return out
}

// Tokens returns the token set of attribute j (nil when missing).
func (r *Record) Tokens(j int) tokens.Set { return r.toks[j] }

// AllTokens returns the union of token sets over all non-missing attributes.
func (r *Record) AllTokens() tokens.Set {
	var u tokens.Set
	for j := range r.toks {
		if !r.miss[j] {
			u = u.Union(r.toks[j])
		}
	}
	return u
}

// ContainsAnyKeyword reports whether any non-missing attribute of r contains
// a token from keywords.
func (r *Record) ContainsAnyKeyword(keywords tokens.Set) bool {
	for j := range r.toks {
		if !r.miss[j] && r.toks[j].ContainsAny(keywords) {
			return true
		}
	}
	return false
}

// Sim returns the ER similarity of two complete records per Definition 5:
// the sum over attributes of per-attribute Jaccard similarities. Calling Sim
// on records with missing attributes treats the missing side as an empty
// token set; resolution code only calls it on imputed instances.
func Sim(a, b *Record) float64 {
	if a.D() != b.D() {
		panic(fmt.Sprintf("tuple: Sim over mismatched dimensions %d vs %d", a.D(), b.D()))
	}
	total := 0.0
	for j := 0; j < a.D(); j++ {
		total += tokens.Jaccard(a.toks[j], b.toks[j])
	}
	return total
}

// SimHeterogeneous returns the schema-agnostic similarity the paper
// sketches for heterogeneous sources (Section 2.3): the Jaccard similarity
// between the token sets of ALL attributes of each tuple,
// |T(r) ∩ T(r')| / |T(r) ∪ T(r')|. Unlike Sim it needs no attribute
// alignment, so the records may have different schemas. The result lies in
// [0, 1].
func SimHeterogeneous(a, b *Record) float64 {
	return tokens.Jaccard(a.AllTokens(), b.AllTokens())
}

// String renders the record compactly for logs and error messages.
func (r *Record) String() string {
	return fmt.Sprintf("%s@%d%v", r.RID, r.Seq, r.vals)
}
