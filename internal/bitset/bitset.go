// Package bitset implements a fixed-capacity bit set used for candidate
// sets in the sub-iso matchers, for the hash fingerprints of CT-Index and
// for GGSX's tombstones (the IDs whose main postings are dead).
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. Create one with New; the zero value is
// an empty set of capacity 0.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set able to hold bits 0..n-1, all initially clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity (number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every set bit of s is also set in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. fn returning false
// stops the iteration early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi<<6 + b) {
				return
			}
			w &= w - 1
		}
	}
}
