package core

import (
	"math"
	"testing"

	"github.com/regretlab/fam/internal/rng"
)

// scanArgmin is the reference the tree replaces: an ascending strict-<
// scan over the alive indices.
func scanArgmin(key []float64, alive []bool) int {
	chosen := -1
	for p, ok := range alive {
		if ok && (chosen == -1 || key[p] < key[chosen]) {
			chosen = p
		}
	}
	return chosen
}

// The tree must agree with the linear scan after every key write and
// every kill, with keys drawn from a tiny set so exact ties (±0
// included) are the common case.
func TestMinTreeMatchesScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 0.5, 1, 1, 2, math.MaxFloat64, 5e-324}
	for seed := uint64(0); seed < 50; seed++ {
		g := rng.New(seed)
		n := g.IntN(70) + 1
		key := make([]float64, n)
		for i := range key {
			key[i] = vals[g.IntN(len(vals))]
		}
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = true
		}
		tr := newMinTree(key)
		for left := n; ; {
			if got, want := tr.argmin(), scanArgmin(key, alive); got != want {
				t.Fatalf("seed %d n=%d: argmin %d, scan %d (keys %v alive %v)", seed, n, got, want, key, alive)
			}
			if left == 0 {
				break
			}
			p := g.IntN(n)
			switch {
			case g.IntN(4) == 0 && alive[p]:
				alive[p] = false
				tr.kill(p)
				left--
			case g.IntN(2) == 0:
				key[p] += vals[g.IntN(len(vals))]
				tr.fix(p)
			default:
				key[p] = vals[g.IntN(len(vals))]
				tr.fix(p)
			}
		}
	}
}

// A single leaf is its own root; killing it empties the tree.
func TestMinTreeSingleLeaf(t *testing.T) {
	tr := newMinTree([]float64{3})
	if got := tr.argmin(); got != 0 {
		t.Fatalf("argmin = %d, want 0", got)
	}
	tr.kill(0)
	if got := tr.argmin(); got != -1 {
		t.Fatalf("argmin after kill = %d, want -1", got)
	}
}
