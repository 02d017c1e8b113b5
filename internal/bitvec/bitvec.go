// Package bitvec provides compact boolean vectors used for the keyword/topic
// aggregates of the DR-index and ER-grid (Section 5 of the paper): each bit
// records whether a query keyword may appear under an index node, a grid
// cell, or an imputed tuple.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-width bit vector. The zero value is an empty vector of
// width 0; use New to size one.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of width n bits.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// Len reports the vector width in bits.
func (v Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear sets bit i to 0.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/64] &^= 1 << (uint(i) % 64)
}

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Any reports whether at least one bit is set.
func (v Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (v Vector) Count() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ones yields the indexes of the set bits in ascending order.
func (v Vector) Ones(yield func(int) bool) {
	for w, word := range v.words {
		for ; word != 0; word &= word - 1 {
			if !yield(w<<6 + bits.TrailingZeros64(word)) {
				return
			}
		}
	}
}

// Or folds other into v in place (v |= other). The widths must match.
func (v Vector) Or(other Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.n, other.n))
	}
	for i := range v.words {
		v.words[i] |= other.words[i]
	}
}

// Intersects reports whether v and other share any set bit. Vectors of
// different widths never intersect beyond the common prefix; widths must
// match here as all callers use query-keyword width.
func (v Vector) Intersects(other Vector) bool {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.n, other.n))
	}
	for i := range v.words {
		if v.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(out.words, v.words)
	return out
}

// Reset zeroes all bits in place.
func (v Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// String renders the vector as a 0/1 string, bit 0 first.
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
