// Package skyline computes skylines (Pareto-optimal subsets) and dominance
// statistics. GREEDY-SHRINK's preprocessing step restricts the candidate
// set to the skyline (for monotone utility distributions, every user's best
// point is a skyline point), and the SKY-DOM baseline operates directly on
// skyline points and their dominance sets.
//
// Two algorithms are provided: a block-nested-loop scan (ComputeBNL, the
// quadratic reference implementation) and a sort-filter-skyline scan
// (Compute, ComputeOpts). SFS sorts the points so that every dominator
// precedes the points it dominates, then keeps a point iff no point of
// the window — the skyline found so far — dominates it:
//
//   - Grid prefilter: before the sort, points are bucketed into an L^d grid
//     (L the largest integer ≥ 2 with L^d ≤ n, each attribute's [lo, hi]
//     cut into L cells) and a point is dropped when some occupied cell is
//     strictly above its own on every axis, found by a suffix-OR over the
//     grid in O(n·d). The cell map x ↦ int((x−lo)·L/(hi−lo)) is monotone
//     non-decreasing under IEEE rounding, so a strictly higher cell means
//     a strictly larger value: the dropped point is dominated, and
//     removing a non-skyline point never changes the skyline. The filter
//     is skipped when L < 2 or when some attribute's width or scale is not
//     finite and positive (a flat attribute, an overflowing hi−lo, or a
//     subnormal width whose scale overflows).
//   - Keyed sort: (sum, index) pairs ordered by descending attribute sum,
//     then by descending attributes compared lexicographically, then by
//     ascending index. A dominator's float sum is never smaller than its
//     victim's but may equal it (rounding, or overflow to +Inf); the
//     lexicographic key keeps it first even then.
//   - Flat window: the window's rows are stored contiguously, d values per
//     row, so testing a point against it is a linear walk.
//   - Mask buckets: the window is split into 2^min(d, 6) buckets by the
//     mask of attributes j < 6 on which a row reaches the per-attribute
//     mean. A dominator's mask is a superset of its victim's, so a point
//     scans only the buckets whose mask contains its own.
package skyline

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/regretlab/fam/internal/bitset"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/point"
	"github.com/regretlab/fam/internal/sched"
)

// Compute returns the indices (in increasing order) of the skyline points
// of the input set using the sort-filter-skyline algorithm. Duplicate
// points are all kept if they are on the skyline (none dominates another).
// Compute runs serially; ComputeOpts shards the dominance tests.
func Compute(points [][]float64) ([]int, error) {
	return ComputeOpts(nil, points, ComputeOptions{Workers: 1})
}

// ComputeOptions configures ComputeOpts.
type ComputeOptions struct {
	// Workers bounds the goroutines sharding the dominance tests (0 = all
	// CPUs, 1 = serial). The result is identical at any setting.
	Workers int
	// Pool is an optional externally owned worker pool; nil spawns
	// per-call goroutines.
	Pool *par.Pool
	// Sched tags the pool fan-outs with scheduling attributes for the
	// pool's grant policy when the context carries none of its own. The
	// skyline is identical under any scheduling.
	Sched sched.Attrs
}

// computeBlock bounds the number of sorted points filtered per parallel
// round. Larger blocks amortize dispatch; smaller blocks keep the window
// (the only data the parallel phase reads) growing frequently so later
// tests prune against a fuller skyline.
const computeBlock = 512

// maskBits caps the attributes that choose a window bucket, so the window
// has at most 2^maskBits buckets.
const maskBits = 6

// sortKey is one point's position key in the scan order.
type sortKey struct {
	sum float64
	idx int
}

// ComputeOpts is Compute with the SFS window scan parallelized — the
// preprocessing bottleneck on large anticorrelated datasets, where the
// skyline (and therefore the window every point is tested against) is
// huge. It uses the grid prefilter, keyed sort, flat window and mask
// buckets described in the package comment. The prefilter runs serially
// after validation and drops provably dominated points, so everything
// after it — sort, pivot, window and blocks — works on the survivors
// only; they keep their original indices. The lexicographic tie-break is
// what keeps the sort dominance-safe: float addition rounds
// monotonically, so a dominator's sum is never below its victim's, but
// rounding or overflow to +Inf can make the two equal.
//
// The sorted order is processed in blocks: each block's points are tested
// against the window as it stood at the block start (bucket lengths
// snapshotted) concurrently, sharded across the workers with contiguous
// blocks; then the survivors are resolved against each other serially in
// sorted order and appended. Dominance is a pure transitive predicate, so
// the result — a set, returned in increasing index order — is identical
// to ComputeBNL at any worker count. A nil context is treated as
// background.
func ComputeOpts(ctx context.Context, points [][]float64, opts ComputeOptions) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = sched.ContextWithDefault(ctx, opts.Sched)
	d, err := point.Validate(points)
	if err != nil {
		return nil, err
	}
	keep := gridSurvivors(points, d)
	n := len(keep)
	keys := make([]sortKey, n)
	piv := make([]float64, d)
	for i, idx := range keep {
		var s float64
		for j, v := range points[idx] {
			s += v
			piv[j] += v
		}
		keys[i] = sortKey{s, idx}
	}
	// Any pivot keeps the bucket argument sound; an overflowed mean only
	// leaves its bit unset everywhere.
	for j := range piv {
		piv[j] /= float64(n)
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.sum != b.sum {
			if a.sum > b.sum {
				return -1
			}
			return 1
		}
		pa, pb := points[a.idx], points[b.idx]
		for j, v := range pa {
			if v != pb[j] {
				if v > pb[j] {
					return -1
				}
				return 1
			}
		}
		return cmp.Compare(a.idx, b.idx)
	})

	nb := 1 << min(d, maskBits)
	buckets := make([][]float64, nb) // bucket m: flat rows of window points with mask m
	frozen := make([]int, nb)        // bucket lengths at the start of the current block
	var window []int                 // indices into points, all mutually non-dominated
	survives := make([]bool, computeBlock)
	masks := make([]int, computeBlock)
	for start := 0; start < n; start += computeBlock {
		block := keys[start:min(start+computeBlock, n)]
		for m, b := range buckets {
			frozen[m] = len(b)
		}
		// Parallel phase: test each block member against the frozen
		// window. Per-item work is one dominance scan — cheap — so small
		// blocks shed workers (par.Bounded).
		nw := par.Bounded(opts.Workers, len(block))
		if err := opts.Pool.Shards(ctx, nw, len(block), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				q := points[block[i].idx]
				mq := pivotMask(q, piv)
				masks[i] = mq
				dominated := false
				for m := mq; m < nb && !dominated; m = (m + 1) | mq {
					dominated = dominatedByRows(buckets[m][:frozen[m]], q)
				}
				survives[i] = !dominated
			}
		}); err != nil {
			return nil, err
		}
		// Serial phase: a survivor can still be dominated by an earlier
		// member of its own block. Only window-surviving earlier members
		// need checking — if the dominator was itself dominated, then by
		// transitivity a window point dominates this one too, and the
		// parallel phase already caught it.
		for i, k := range block {
			if !survives[i] {
				continue
			}
			q := points[k.idx]
			mq := masks[i]
			dominated := false
			for m := mq; m < nb && !dominated; m = (m + 1) | mq {
				dominated = dominatedByRows(buckets[m][frozen[m]:], q)
			}
			if !dominated {
				buckets[mq] = append(buckets[mq], q...)
				window = append(window, k.idx)
			}
		}
	}
	sort.Ints(window)
	return window, nil
}

// gridSurvivors returns, in increasing order, the indices of the points
// that the grid prefilter cannot prove dominated (see the package
// comment); every index when the grid does not apply. It runs in O(n·d).
func gridSurvivors(points [][]float64, d int) []int {
	all := func() []int {
		keep := make([]int, len(points))
		for i := range keep {
			keep[i] = i
		}
		return keep
	}
	n := len(points)
	side, cells := gridSide(min(n, math.MaxInt32), d) // cell ids fit int32
	if side < 2 {
		return all()
	}
	lo := slices.Clone(points[0])
	hi := slices.Clone(points[0])
	for _, p := range points[1:] {
		for j, v := range p {
			lo[j] = min(lo[j], v)
			hi[j] = max(hi[j], v)
		}
	}
	// A flat attribute leaves no cell strictly above another on it, and a
	// width that overflows, or a scale that does (subnormal widths), would
	// feed NaN to the cell map.
	finitePositive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	scale := make([]float64, d)
	for j := range scale {
		w := hi[j] - lo[j]
		scale[j] = float64(side) / w
		if !finitePositive(w) || !finitePositive(scale[j]) {
			return all()
		}
	}

	// up[i] is the cell one step above point i's on every axis, or -1 when
	// point i lies on the top face, where nothing can be above it.
	occ := make([]bool, cells)
	up := make([]int32, n)
	diag := (cells - 1) / (side - 1) // Σ side^j over j < d
	for i, p := range points {
		c, stride, top := 0, 1, false
		for j, v := range p {
			// v ≥ lo and 0 < scale < ∞, so the product is finite, ≥ 0
			// and at most a rounding above side.
			x := int((v - lo[j]) * scale[j])
			if x >= side-1 {
				x, top = side-1, true
			}
			c += x * stride
			stride *= side
		}
		occ[c] = true
		up[i] = -1
		if !top {
			up[i] = int32(c + diag)
		}
	}
	// Suffix-OR along each axis, high cells first: afterwards occ[c] says
	// some point's cell is ≥ c on every coordinate.
	for stride := 1; stride < cells; stride *= side {
		for base := 0; base < cells; base += stride * side {
			for k := base + (side-1)*stride - 1; k >= base; k-- {
				if occ[k+stride] {
					occ[k] = true
				}
			}
		}
	}
	keep := make([]int, 0, n)
	for i, u := range up {
		if u < 0 || !occ[u] {
			keep = append(keep, i)
		}
	}
	return keep
}

// gridSide returns the largest side L ≥ 2 with L^d ≤ limit, and L^d; a
// side of 0 when even 2^d exceeds limit.
func gridSide(limit, d int) (side, cells int) {
	pow := func(l int) int { // l^d, or limit+1 once it exceeds limit
		c := 1
		for range d {
			if c > limit/l {
				return limit + 1
			}
			c *= l
		}
		return c
	}
	side = int(math.Pow(float64(limit), 1/float64(d)))
	for side > 1 && pow(side) > limit {
		side--
	}
	for pow(side+1) <= limit {
		side++
	}
	if side < 2 {
		return 0, 0
	}
	return side, pow(side)
}

// pivotMask returns the bucket of q: bit j is set, for j < maskBits, when
// q[j] reaches the pivot.
func pivotMask(q, piv []float64) int {
	m := 0
	for j := 0; j < len(q) && j < maskBits; j++ {
		if q[j] >= piv[j] {
			m |= 1 << j
		}
	}
	return m
}

// dominatedByRows reports whether some row of rows — flat, len(q) values
// per row — dominates q.
func dominatedByRows(rows, q []float64) bool {
	d := len(q)
	for off := 0; off < len(rows); off += d {
		if point.Dominates(rows[off:off+d:off+d], q) {
			return true
		}
	}
	return false
}

// ComputeBNL returns the skyline via the block-nested-loop reference
// algorithm. It is used to cross-check Compute in tests and kept exported
// for the ablation benches.
func ComputeBNL(points [][]float64) ([]int, error) {
	if _, err := point.Validate(points); err != nil {
		return nil, err
	}
	var out []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out, nil
}

// DominanceSets returns, for each of the given candidate indices, the set
// of point indices (over the full point set) that the candidate dominates.
// Used by the SKY-DOM baseline's max-coverage greedy. Each candidate's
// dominance scan is independent, so the candidates are sharded across
// `workers` goroutines (0 = all CPUs, 1 = serial), dispatched on the
// optional pool (nil spawns per-call goroutines); set membership is a
// pure predicate, so the result is identical at any worker count. A nil
// context is treated as background.
func DominanceSets(ctx context.Context, points [][]float64, candidates []int, workers int, pool *par.Pool) ([]*bitset.Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(points)
	out := make([]*bitset.Set, len(candidates))
	nw := par.Workers(workers, len(candidates))
	if err := pool.Shards(ctx, nw, len(candidates), func(w, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			if ctx.Err() != nil {
				return
			}
			c := candidates[ci]
			s := bitset.New(n)
			for j, q := range points {
				if j != c && point.Dominates(points[c], q) {
					s.Add(j)
				}
			}
			out[ci] = s
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Skyline2DSorted returns the 2-d skyline points sorted by strictly
// descending first attribute (and therefore strictly ascending second
// attribute), which is the input convention of the Section IV dynamic
// program. Points that tie on both attributes are collapsed to one.
// The returned indices refer to the input set.
func Skyline2DSorted(points [][]float64) ([]int, error) {
	d, err := point.Validate(points)
	if err != nil {
		return nil, err
	}
	if d != 2 {
		return nil, fmt.Errorf("skyline: Skyline2DSorted requires 2-d points, got dimension %d", d)
	}
	idx, err := Compute(points)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := points[idx[a]], points[idx[b]]
		if pa[0] != pb[0] {
			return pa[0] > pb[0]
		}
		return pa[1] > pb[1]
	})
	// Collapse exact duplicates; skyline guarantees no dominance between
	// members, so after sorting, consecutive equal points are duplicates.
	out := idx[:0]
	for i, id := range idx {
		if i > 0 {
			prev := points[out[len(out)-1]]
			cur := points[id]
			if prev[0] == cur[0] && prev[1] == cur[1] {
				continue
			}
		}
		out = append(out, id)
	}
	return out, nil
}
