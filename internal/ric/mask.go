package ric

import "math/bits"

// Mask is a word-packed bitset over the members of one sample's source
// community. Member j of the community corresponds to bit j. Masks are
// deliberately bare slices: the pool stores millions of them, so every
// byte of header counts.
type Mask []uint64

const maskWordBits = 64

// newMask returns an all-zero mask able to hold n member bits.
func newMask(n int) Mask {
	return make(Mask, (n+maskWordBits-1)/maskWordBits)
}

// set turns on bit i.
func (m Mask) set(i int) { m[i/maskWordBits] |= 1 << uint(i%maskWordBits) }

// Test reports whether bit i is on.
func (m Mask) Test(i int) bool {
	return m[i/maskWordBits]&(1<<uint(i%maskWordBits)) != 0
}

// OnesCount returns the number of set bits.
func (m Mask) OnesCount() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrInto sets dst |= m. Both masks must have equal length.
func (m Mask) OrInto(dst Mask) {
	for i, w := range m {
		dst[i] |= w
	}
}

// NewBitsOver returns the number of bits set in m but not in base — the
// marginal member coverage m adds on top of base.
func (m Mask) NewBitsOver(base Mask) int {
	c := 0
	for i, w := range m {
		c += bits.OnesCount64(w &^ base[i])
	}
	return c
}

// UnionCount returns |m ∪ base| without mutating either mask.
func (m Mask) UnionCount(base Mask) int {
	c := 0
	for i, w := range m {
		c += bits.OnesCount64(w | base[i])
	}
	return c
}

// Clone returns an independent copy of m.
func (m Mask) Clone() Mask {
	out := make(Mask, len(m))
	copy(out, m)
	return out
}

// AndNot returns a fresh mask m &^ other (bits of m with other's bits
// removed).
func (m Mask) AndNot(other Mask) Mask {
	out := make(Mask, len(m))
	for i, w := range m {
		out[i] = w &^ other[i]
	}
	return out
}
