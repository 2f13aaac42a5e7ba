package core

// minTree is a flat tournament tree over a key slice. Leaf i holds i
// while alive and -1 once killed; every internal node holds the winner
// of its two children: the lower key, or the left (lower-index) child
// on ties. The root is therefore the lowest index of the minimum key
// among the alive leaves, exactly what an ascending strict-< scan
// returns. Keys must never be NaN.
//
// The tree does not own its keys: after writing key[p], the owner calls
// fix(p) to replay p's path to the root, O(log n).
type minTree struct {
	key  []float64
	node []int32 // node[1] is the root; leaf i is node[size+i]
	size int     // leaf slots: the smallest power of two ≥ len(key)
}

func newMinTree(key []float64) *minTree {
	size := 1
	for size < len(key) {
		size <<= 1
	}
	t := &minTree{key: key, node: make([]int32, 2*size), size: size}
	for i := range size {
		if i < len(key) {
			t.node[size+i] = int32(i)
		} else {
			t.node[size+i] = -1
		}
	}
	for v := size - 1; v >= 1; v-- {
		t.node[v] = t.winner(t.node[2*v], t.node[2*v+1])
	}
	return t
}

// winner plays left child a against right child b.
func (t *minTree) winner(a, b int32) int32 {
	if a < 0 || (b >= 0 && t.key[b] < t.key[a]) {
		return b
	}
	return a
}

// argmin returns the lowest alive index of the minimum key, -1 when
// every leaf is dead.
func (t *minTree) argmin() int { return int(t.node[1]) }

// kill removes leaf p from the tournament.
func (t *minTree) kill(p int) {
	t.node[t.size+p] = -1
	t.fix(p)
}

// fix replays the matches on leaf p's path after key[p] changed.
func (t *minTree) fix(p int) {
	for v := (t.size + p) >> 1; v >= 1; v >>= 1 {
		t.node[v] = t.winner(t.node[2*v], t.node[2*v+1])
	}
}
