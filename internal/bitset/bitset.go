// Package bitset provides a fixed-capacity bitset used for dominance
// coverage bookkeeping in the SKY-DOM baseline (selecting the k skyline
// points that together dominate the most points requires fast set union
// and cardinality over "which points does this skyline point dominate").
package bitset

import "math/bits"

// Set is a fixed-capacity bitset over [0, n).
type Set struct {
	n     int
	words []uint64
}

// New returns an empty bitset with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Add sets bit i. Out-of-range indices are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// UnionWith sets s = s ∪ other. The sets must have equal capacity.
func (s *Set) UnionWith(other *Set) {
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// AndNotCount returns |other \ s|: bits set in other but not in s.
func (s *Set) AndNotCount(other *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(other.words[i] &^ w)
	}
	return c
}
