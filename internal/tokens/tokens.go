// Package tokens implements token sets over textual attribute values and
// the Jaccard similarity/distance used throughout TER-iDS (Definition 5 of
// the paper). A token is represented by its ID in one process-wide
// dictionary, and a set is a sorted, duplicate-free ID slice, so set
// operations are integer merge scans that read nothing but their operands.
//
// The dictionary is append-only and never persisted: IDs are handed out in
// first-seen order and mean nothing outside this process. Anything that
// leaves the process or decides placement (checkpoint keywords, keyword bit
// positions, shard slots, rendered strings) must therefore be derived from
// token text — Texts and SortedByText — never from ID order.
package tokens

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
)

// Set is a sorted, duplicate-free collection of token IDs. The zero value
// is an empty set ready to use.
type Set []uint32

// dict is the process-wide token dictionary: ids maps a token's text to its
// ID, texts is the inverse. Both only ever grow.
var dict = struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	texts []string
}{ids: make(map[string]uint32)}

// intern appends the ID of every non-empty token of toks to out, assigning
// fresh IDs to unseen texts. The known prefix is resolved under the read
// lock; the write lock is taken from the first unseen token on.
func intern(toks []string, out []uint32) []uint32 {
	miss := -1
	dict.mu.RLock()
	for i, t := range toks {
		if t == "" {
			continue
		}
		id, ok := dict.ids[t]
		if !ok {
			miss = i
			break
		}
		out = append(out, id)
	}
	dict.mu.RUnlock()
	if miss < 0 {
		return out
	}
	dict.mu.Lock()
	for _, t := range toks[miss:] {
		if t == "" {
			continue
		}
		id, ok := dict.ids[t]
		if !ok {
			if len(dict.texts) == math.MaxUint32 {
				panic("tokens: dictionary full")
			}
			id = uint32(len(dict.texts))
			// Cloned so the dictionary does not pin the attribute value
			// the token was cut from.
			t = strings.Clone(t)
			dict.texts = append(dict.texts, t)
			dict.ids[t] = id
		}
		out = append(out, id)
	}
	dict.mu.Unlock()
	return out
}

// Text returns the text of a token ID handed out by this process.
func Text(id uint32) string {
	dict.mu.RLock()
	defer dict.mu.RUnlock()
	return dict.texts[id]
}

// DictSize reports the number of distinct tokens seen by this process.
func DictSize() int {
	dict.mu.RLock()
	defer dict.mu.RUnlock()
	return len(dict.texts)
}

// Tokenize splits a textual attribute value into a token set. Tokens are
// lower-cased maximal runs of letters and digits; everything else is a
// separator. An empty or all-separator string yields an empty set.
func Tokenize(s string) Set {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	return New(fields...)
}

// New builds a Set from raw tokens, interning, sorting and deduplicating
// them. Empty tokens are dropped.
func New(toks ...string) Set {
	if len(toks) == 0 {
		return nil
	}
	ids := intern(toks, make([]uint32, 0, len(toks)))
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	return Set(slices.Compact(ids))
}

// Len reports the number of tokens in the set.
func (s Set) Len() int { return len(s) }

// Contains reports whether the token with the given ID is a member of the
// set.
func (s Set) Contains(id uint32) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// ContainsAny reports whether any token of other appears in s. It is the
// Boolean topic function ϖ(r, K) of the problem statement when other holds
// the query keywords.
func (s Set) ContainsAny(other Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		a, b := s[i], other[j]
		if a == b {
			return true
		}
		if a < b {
			i++
		} else {
			j++
		}
	}
	return false
}

// IntersectSize returns |s ∩ other|.
//
//terids:hotpath
func (s Set) IntersectSize(other Set) int {
	i, j, n := 0, 0, 0
	for i < len(s) && j < len(other) {
		// How two sets interleave is close to a coin flip per step, so the
		// step is arithmetic instead of a three-way branch: le and ge are
		// the sign bits of d-1 and -d-1, i.e. s[i] <= other[j] and
		// s[i] >= other[j] as 0 or 1.
		d := int64(s[i]) - int64(other[j])
		le := int(uint64(d-1) >> 63)
		ge := int(uint64(-d-1) >> 63)
		i += le
		j += ge
		n += le & ge
	}
	return n
}

// Union returns a new set holding s ∪ other.
func (s Set) Union(other Set) Set {
	out := make(Set, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] == other[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, other[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Equal reports whether the two sets hold exactly the same tokens.
func (s Set) Equal(other Set) bool { return slices.Equal(s, other) }

// SortedByText returns the set's token IDs in ascending order of their
// text: the one ordering of a set that does not depend on which texts this
// process happened to see first.
func (s Set) SortedByText() []uint32 {
	out := slices.Clone(s)
	dict.mu.RLock()
	defer dict.mu.RUnlock()
	slices.SortFunc(out, func(a, b uint32) int { return strings.Compare(dict.texts[a], dict.texts[b]) })
	return out
}

// Texts returns the set's tokens as text, in ascending text order.
func (s Set) Texts() []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, len(s))
	dict.mu.RLock()
	for i, id := range s {
		out[i] = dict.texts[id]
	}
	dict.mu.RUnlock()
	slices.Sort(out)
	return out
}

// String renders the set as a space-joined token list in text order.
func (s Set) String() string { return strings.Join(s.Texts(), " ") }
