// Package bitset provides a compact, allocation-conscious dynamic bitset.
//
// It is the workhorse behind RIC-sample coverage bookkeeping: every RIC
// sample tracks, per candidate seed node, which members of the source
// community that node can reach. Those member sets are small (bounded by
// the community size cap), so a dense word-packed bitset is both the
// fastest and the smallest representation.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over [0, Len()). The zero value is an
// empty set of capacity zero; use New to size it.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len reports the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set turns bit i on. Out-of-range indices are ignored.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is on.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit, keeping capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Ones returns the indices of all set bits in ascending order.
func (s *Set) Ones() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// String renders the set as {i, j, ...} for debugging.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, b := range s.Ones() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", b)
	}
	sb.WriteByte('}')
	return sb.String()
}
