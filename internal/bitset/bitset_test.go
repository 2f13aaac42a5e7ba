package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// contains and count read the words directly, so the tests check Add,
// UnionWith and AndNotCount against an independent view of the bits.
func contains(s *Set, i int) bool {
	return i >= 0 && i < s.n && s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func count(s *Set) int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func TestBasicOps(t *testing.T) {
	s := New(130)
	if count(s) != 0 {
		t.Fatal("fresh set should be empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if !contains(s, 0) || !contains(s, 64) || !contains(s, 129) {
		t.Fatal("bits missing after Add")
	}
	if count(s) != 3 {
		t.Fatalf("count = %d", count(s))
	}
	// Out of range operations are no-ops.
	s.Add(-1)
	s.Add(130)
	if count(s) != 3 || len(s.words) != 3 {
		t.Fatal("out-of-range must be ignored")
	}
	if New(-5).n != 0 {
		t.Fatal("negative capacity must clamp to 0")
	}
}

func TestUnionAndCounts(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 50; i++ {
		a.Add(i)
	}
	for i := 25; i < 75; i++ {
		b.Add(i)
	}
	if got := a.AndNotCount(b); got != 25 {
		t.Fatalf("AndNotCount = %d, want 25", got)
	}
	if got := b.AndNotCount(a); got != 25 {
		t.Fatalf("reverse AndNotCount = %d, want 25", got)
	}
	a.UnionWith(b)
	if count(a) != 75 || count(b) != 50 {
		t.Fatal("UnionWith must grow the receiver only")
	}
	if got := a.AndNotCount(b); got != 0 {
		t.Fatalf("AndNotCount into a superset = %d, want 0", got)
	}
}

// Property: bitset agrees with a map-based reference under a random op
// sequence.
func TestAgainstMapReference(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 96
		s := New(n)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			if op/128%2 == 0 {
				s.Add(i)
				ref[i] = true
			} else if contains(s, i) != ref[i] {
				return false
			}
		}
		if count(s) != len(ref) {
			return false
		}
		for i := range ref {
			if !contains(s, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the union's count is |a| + |b \ a|, and AndNotCount into the
// union is zero from either side.
func TestCountUnionConsistency(t *testing.T) {
	f := func(aBits, bBits []uint8) bool {
		const n = 200
		a, b, u := New(n), New(n), New(n)
		for _, v := range aBits {
			a.Add(int(v) % n)
		}
		for _, v := range bBits {
			b.Add(int(v) % n)
		}
		u.UnionWith(a)
		u.UnionWith(b)
		return count(u) == count(a)+a.AndNotCount(b) &&
			u.AndNotCount(a) == 0 && u.AndNotCount(b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
