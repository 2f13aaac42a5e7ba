// Package skyline computes skylines (Pareto-optimal subsets) and dominance
// statistics. GREEDY-SHRINK's preprocessing step restricts the candidate
// set to the skyline (for monotone utility distributions, every user's best
// point is a skyline point), and the SKY-DOM baseline operates directly on
// skyline points and their dominance sets.
//
// The skyline is computed by a sort-filter-skyline scan (Compute,
// ComputeOpts); the tests check it against a quadratic block-nested-loop
// reference. SFS sorts the points so that every dominator
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
//   - Sharded front end: validation, the bounds, the grid marks and the
//     survivors' sums run as passes over contiguous shards of the points,
//     one per worker; per-shard bounds, occupancy maps and survivor runs
//     are merged in shard order, so everything after them is the same at
//     any worker count.
//   - Keyed sort: (sum, index) pairs ordered by descending attribute sum,
//     then by descending attributes compared lexicographically, then by
//     ascending index. A dominator's float sum is never smaller than its
//     victim's but may equal it (rounding, or overflow to +Inf); the
//     lexicographic key keeps it first even then. An LSD radix sort on
//     the sums' order-preserving bits gives the primary order; only runs
//     of equal sums are sorted by comparison.
//   - Flat window: the window's rows are stored contiguously, d values per
//     row, so testing a point against it is a linear walk.
//   - Mask buckets: the window is split into 2^min(d, 6) buckets by the
//     mask of attributes j < 6 on which a row reaches the per-attribute
//     mean. A dominator's mask is a superset of its victim's, so a point
//     scans only the buckets whose mask contains its own.
//   - Packed pre-test: each attribute is also mapped to a 15-bit code,
//     min(int((x−lo)·s), 32767) with s = 32767/(hi−lo) — the grid's cell
//     map with more cells, so non-decreasing in x by the argument above,
//     and a dominator's code is never below its victim's on any attribute.
//     An attribute whose width or scale is not finite and positive codes
//     to 0 everywhere, a lane that never rejects. Four codes share a
//     uint64 in 16-bit lanes whose top bit is a guard, ⌈d/4⌉ words per
//     row, stored beside the window's float rows. A row can dominate q
//     only if ((r|G) − q) & G == G in every word, G = 0x8000800080008000:
//     each lane is at most 0x7FFF, so the guarded lane minus q's lane
//     stays in [1, 0xFFFF], no borrow crosses into the next lane, and the
//     guard survives iff r's code reaches q's. Only rows that pass go on
//     to the exact float test, so the answer is unchanged; on
//     anticorrelated data the pre-test rejects more than 99% of the rows.
package skyline

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/regretlab/fam/internal/bitset"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/point"
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
// huge. It uses the sharded front end, grid prefilter, keyed sort, flat
// window, mask buckets and packed pre-test described in the package
// comment. One sharded pass validates the points and finds each
// attribute's bounds for both the grid and the codes; the next marks the
// grid, and two more count and then sum the points the prefilter cannot
// prove dominated, so everything after it — sort, pivot, window and
// blocks — works on the survivors only; they keep their original
// indices. The front end runs at par.Bounded(Workers, n) shards, one at
// Workers 1. The lexicographic tie-break is what keeps the sort
// dominance-safe: float addition rounds monotonically, so a dominator's
// sum is never below its victim's, but rounding or overflow to +Inf can
// make the two equal.
//
// The sorted order is processed in blocks: each block's points are tested
// against the window as it stood at the block start (bucket lengths
// snapshotted) concurrently, sharded across the workers with contiguous
// blocks; then the survivors are resolved against each other serially in
// sorted order and appended. Dominance is a pure transitive predicate, so
// the result — a set, returned in increasing index order — is identical
// to the block-nested-loop skyline at any worker count. A nil context is
// treated as background.
func ComputeOpts(ctx context.Context, points [][]float64, opts ComputeOptions) ([]int, error) {
	return computeOpts(ctx, points, opts, nil)
}

// scanCounts tallies the window scan's work: rows whose packed codes were
// compared, and rows that passed that pre-test and went on to the exact
// float dominance test.
type scanCounts struct {
	rows, exact int
}

func (c *scanCounts) add(o scanCounts) {
	c.rows += o.rows
	c.exact += o.exact
}

// computeOpts is ComputeOpts, adding the scan's work into counts when it
// is non-nil. The counts are the same at any worker count.
func computeOpts(ctx context.Context, points [][]float64, opts ComputeOptions, counts *scanCounts) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lo, hi, err := validBounds(ctx, points, opts)
	if err != nil {
		return nil, err
	}
	keys, err := survivorKeys(ctx, points, lo, hi, opts)
	if err != nil {
		return nil, err
	}
	d, n := len(lo), len(keys)
	cm := newCodeMap(lo, hi)
	// The pivot is summed serially in index order, so the buckets do not
	// depend on the worker count.
	piv := make([]float64, d)
	for _, k := range keys {
		for j, v := range points[k.idx] {
			piv[j] += v
		}
	}
	// Any pivot keeps the bucket argument sound; an overflowed mean only
	// leaves its bit unset everywhere.
	for j := range piv {
		piv[j] /= float64(n)
	}
	sortKeys(points, keys)

	nb := 1 << min(d, maskBits)
	nw := cm.words
	buckets := make([]bucket, nb) // bucket m: window points with mask m
	frozen := make([]int, nb)     // bucket row counts at the start of the current block
	var window []int              // indices into points, all mutually non-dominated
	survives := make([]bool, computeBlock)
	masks := make([]int, computeBlock)
	qcodes := make([]uint64, computeBlock*nw) // the block members' packed codes
	var countMu sync.Mutex                    // guards counts in the parallel phase
	for start := 0; start < n; start += computeBlock {
		block := keys[start:min(start+computeBlock, n)]
		for m := range buckets {
			frozen[m] = buckets[m].len(nw)
		}
		// Parallel phase: test each block member against the frozen
		// window. Per-item work is one dominance scan — cheap — so small
		// blocks shed workers (par.Bounded).
		workers := par.Bounded(opts.Workers, len(block))
		if err := opts.Pool.Shards(ctx, workers, len(block), func(_, lo, hi int) {
			var sc scanCounts
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				q := points[block[i].idx]
				qc := qcodes[i*nw : (i+1)*nw : (i+1)*nw]
				cm.encode(q, qc)
				mq := pivotMask(q, piv)
				masks[i] = mq
				dominated := false
				for m := mq; m < nb && !dominated; m = (m + 1) | mq {
					dominated = buckets[m].dominated(0, frozen[m], q, qc, &sc)
				}
				survives[i] = !dominated
			}
			if counts != nil {
				countMu.Lock()
				counts.add(sc)
				countMu.Unlock()
			}
		}); err != nil {
			return nil, err
		}
		// Serial phase: a survivor can still be dominated by an earlier
		// member of its own block. Only window-surviving earlier members
		// need checking — if the dominator was itself dominated, then by
		// transitivity a window point dominates this one too, and the
		// parallel phase already caught it.
		var sc scanCounts
		for i, k := range block {
			if !survives[i] {
				continue
			}
			q := points[k.idx]
			qc := qcodes[i*nw : (i+1)*nw]
			mq := masks[i]
			dominated := false
			for m := mq; m < nb && !dominated; m = (m + 1) | mq {
				dominated = buckets[m].dominated(frozen[m], buckets[m].len(nw), q, qc, &sc)
			}
			if !dominated {
				b := &buckets[mq]
				b.rows = append(b.rows, q...)
				b.codes = append(b.codes, qc...)
				window = append(window, k.idx)
			}
		}
		if counts != nil {
			counts.add(sc)
		}
	}
	sort.Ints(window)
	return window, nil
}

// bucket is one mask bucket of the window: its rows stored flat, d values
// per row, and beside them each row's packed codes, codeMap.words per row.
type bucket struct {
	rows  []float64
	codes []uint64
}

// len returns the bucket's row count at nw code words per row.
func (b *bucket) len(nw int) int { return len(b.codes) / nw }

// guards holds the guard bit of each 16-bit lane of a code word.
const guards = 0x8000_8000_8000_8000

// dominated reports whether one of the bucket's rows [from, to) dominates
// q, whose packed codes are qc, and adds the rows it tried and the exact
// tests it ran to sc. A row goes on to the exact test only when its codes
// reach q's on every lane. The first word, which rejects most rows, is
// tested on its own; at d ≤ 4 it is the only one.
func (b *bucket) dominated(from, to int, q []float64, qc []uint64, sc *scanCounts) bool {
	d, nw, q0 := len(q), len(qc), qc[0]
	exact := func(r int) bool {
		sc.exact++
		off := r * d
		if point.Dominates(b.rows[off:off+d:off+d], q) {
			sc.rows += r - from + 1
			return true
		}
		return false
	}
	if nw == 1 {
		for i, c := range b.codes[from:to] {
			if ((c|guards)-q0)&guards == guards && exact(from+i) {
				return true
			}
		}
	} else {
		codes := b.codes[:to*nw]
		for i := from * nw; i < len(codes); i += nw {
			if ((codes[i]|guards)-q0)&guards == guards && reaches(codes[i+1:i+nw], qc[1:]) && exact(i/nw) {
				return true
			}
		}
	}
	sc.rows += to - from
	return false
}

// reaches reports whether every lane of the code words c is at least the
// matching lane of qc. Each lane is at most codeMax, so setting its guard
// bit and subtracting never borrows across lanes, and the guard survives
// iff the lane of c is ≥ that of qc.
func reaches(c, qc []uint64) bool {
	acc := uint64(guards)
	for k, w := range c {
		acc &= (w | guards) - qc[k]
	}
	return acc&guards == guards
}

// codeMax is the largest 15-bit code.
const codeMax = 1<<15 - 1

// codeMap maps points to packed 15-bit codes for the window pre-test (see
// the package comment): attribute j's code is min(int((x−lo[j])·scale[j]),
// codeMax), four codes per uint64 in 16-bit lanes whose top (guard) bit
// is clear.
type codeMap struct {
	lo, scale []float64 // scale 0: the attribute's code is 0 everywhere
	words     int       // code words per point, ⌈d/4⌉
}

// newCodeMap returns the code map over the per-attribute bounds lo, hi.
func newCodeMap(lo, hi []float64) codeMap {
	cm := codeMap{lo: lo, scale: make([]float64, len(lo)), words: (len(lo) + 3) / 4}
	for j := range lo {
		if s, ok := cellScale(lo[j], hi[j], codeMax); ok {
			cm.scale[j] = s
		}
	}
	return cm
}

// encode writes p's packed codes into dst, which has cm.words words.
func (cm codeMap) encode(p []float64, dst []uint64) {
	clear(dst)
	for j, v := range p {
		if s := cm.scale[j]; s > 0 {
			// v ≥ lo and 0 < s < ∞, so the product is finite, ≥ 0 and at
			// most a rounding above codeMax.
			dst[j/4] |= uint64(min(int((v-cm.lo[j])*s), codeMax)) << (16 * (j % 4))
		}
	}
}

// cellScale returns cells/(hi−lo), the scale that cuts [lo, hi] into
// cells cells, and whether it is usable: the width and the scale must both
// be finite and positive. A flat attribute leaves no cell strictly above
// another on it, and a width that overflows, or a scale that does
// (subnormal widths), would feed NaN to the cell map.
func cellScale(lo, hi, cells float64) (float64, bool) {
	finitePositive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	w := hi - lo
	s := cells / w
	return s, finitePositive(w) && finitePositive(s)
}

// validBounds checks the points as point.Validate does and returns each
// attribute's minimum and maximum, in one pass over par.Bounded(Workers,
// n) shards of contiguous rows. Each shard checks its rows'
// lengths and takes its own bounds with the min and max builtins, which
// propagate NaN, so a shard's bounds are all finite exactly when its rows
// are; the shards' bounds are then merged in shard order. On any bad row
// it returns point.Validate's error, so the message is the same at every
// worker count; a validation error also takes precedence over a canceled
// context.
func validBounds(ctx context.Context, points [][]float64, opts ComputeOptions) (lo, hi []float64, err error) {
	n := len(points)
	if n == 0 || len(points[0]) == 0 {
		_, err := point.Validate(points)
		return nil, nil, err
	}
	d := len(points[0])
	shards := par.Bounded(opts.Workers, n)
	los, his := make([][]float64, shards), make([][]float64, shards)
	err = opts.Pool.Shards(ctx, shards, n, func(w, a, b int) {
		l, h := make([]float64, d), make([]float64, d)
		for j := range l {
			l[j], h[j] = math.Inf(1), math.Inf(-1)
		}
		for _, p := range points[a:b] {
			if len(p) != d {
				return // los[w] stays nil
			}
			for j, v := range p {
				l[j] = min(l[j], v)
				h[j] = max(h[j], v)
			}
		}
		los[w], his[w] = l, h
	})
	if err == nil && !slices.ContainsFunc(los, func(l []float64) bool { return l == nil }) {
		lo, hi = los[0], his[0]
		for w := 1; w < shards; w++ {
			for j := range lo {
				lo[j] = min(lo[j], los[w][j])
				hi[j] = max(hi[j], his[w][j])
			}
		}
		if finite(lo) && finite(hi) {
			return lo, hi, nil
		}
	}
	if _, verr := point.Validate(points); verr != nil {
		return nil, nil, verr
	}
	return nil, nil, err
}

// finite reports whether every value of xs is neither NaN nor infinite.
func finite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 { // NaN exactly when x is NaN or ±Inf
			return false
		}
	}
	return true
}

// survivorKeys returns, in increasing index order, the sort keys of the
// points that the grid prefilter cannot prove dominated (see the package
// comment); every point's key when the grid does not apply. lo and hi are
// the per-attribute bounds. It runs in O(n·d) in passes sharded like
// validBounds: gridMarks, then a count of each shard's survivors, then a
// pass in which each shard sums its survivors and writes their keys at
// its offset, the survivors of the shards before it.
func survivorKeys(ctx context.Context, points [][]float64, lo, hi []float64, opts ComputeOptions) ([]sortKey, error) {
	n := len(points)
	shards := par.Bounded(opts.Workers, n)
	up, occ, err := gridMarks(ctx, points, lo, hi, shards, opts)
	if err != nil {
		return nil, err
	}
	dropped := func(i int) bool { return up != nil && up[i] >= 0 && occ[up[i]] != 0 }
	// starts[w+1] first counts shard w's survivors, then becomes the end
	// of its run of keys.
	starts := make([]int, shards+1)
	if err := opts.Pool.Shards(ctx, shards, n, func(w, a, b int) {
		c := b - a
		if up != nil {
			for i := a; i < b; i++ {
				if dropped(i) {
					c--
				}
			}
		}
		starts[w+1] = c
	}); err != nil {
		return nil, err
	}
	for w := range shards {
		starts[w+1] += starts[w]
	}
	keys := make([]sortKey, starts[shards])
	if err := opts.Pool.Shards(ctx, shards, n, func(w, a, b int) {
		m := starts[w]
		for i := a; i < b; i++ {
			if dropped(i) {
				continue
			}
			var s float64
			for _, v := range points[i] {
				s += v
			}
			keys[m] = sortKey{s, i}
			m++
		}
	}); err != nil {
		return nil, err
	}
	return keys, nil
}

// gridMarks places the points on the prefilter's grid, in shards of
// contiguous points. It returns up, where up[i] is the cell one step above
// point i's on every axis or -1 when point i lies on the top face, and
// occ, where occ[c] is non-zero iff some point's cell is ≥ c on every
// axis; both nil when the grid does not apply. Each shard writes its own
// range of up and marks its points' cells in its own occupancy map; the
// maps are OR-merged and then swept once.
func gridMarks(ctx context.Context, points [][]float64, lo, hi []float64, shards int, opts ComputeOptions) (up []int32, occ []byte, err error) {
	n := len(points)
	g := newGrid(n, lo, hi)
	if g == nil {
		return nil, nil, nil
	}
	up = make([]int32, n)
	occs := make([][]byte, shards)
	if err := opts.Pool.Shards(ctx, shards, n, func(w, a, b int) {
		o := make([]byte, g.cells)
		for i, p := range points[a:b] {
			c, u := g.place(p)
			o[c] = 1
			up[a+i] = int32(u)
		}
		occs[w] = o
	}); err != nil {
		return nil, nil, err
	}
	occ = occs[0]
	for _, o := range occs[1:] {
		for c, v := range o {
			occ[c] |= v
		}
	}
	g.sweep(occ)
	return up, occ, nil
}

// grid is the prefilter's L^d grid over the points' bounds: cell ids are
// Σ x_j·side^j, where x_j = int((v_j − lo_j)·scale_j) capped at side−1.
type grid struct {
	side, cells, diag int       // diag: Σ side^j over j < d, one step up on every axis
	lo, scale         []float64 // the per-attribute cell map
	strides           []int     // side^j
}

// newGrid returns the grid for n points with per-attribute bounds lo, hi,
// or nil when it does not apply: when L < 2, or when some attribute's
// width or scale is not finite and positive.
func newGrid(n int, lo, hi []float64) *grid {
	side, cells := gridSide(min(n, math.MaxInt32), len(lo)) // cell ids fit int32
	if side < 2 {
		return nil
	}
	g := &grid{side: side, cells: cells, diag: (cells - 1) / (side - 1), lo: lo,
		scale: make([]float64, len(lo)), strides: make([]int, len(lo))}
	for j, st := 0, 1; j < len(lo); j, st = j+1, st*side {
		s, ok := cellScale(lo[j], hi[j], float64(side))
		if !ok {
			return nil
		}
		g.scale[j], g.strides[j] = s, st
	}
	return g
}

// place returns p's cell and the cell one step above it on every axis, or
// -1 for the latter when p lies on the top face, where nothing can be
// above it.
func (g *grid) place(p []float64) (cell, up int) {
	top := false
	for j, v := range p {
		// v ≥ lo and 0 < scale < ∞, so the product is finite, ≥ 0 and at
		// most a rounding above side.
		x := int((v - g.lo[j]) * g.scale[j])
		if x >= g.side-1 {
			x, top = g.side-1, true
		}
		cell += x * g.strides[j]
	}
	if top {
		return cell, -1
	}
	return cell, cell + g.diag
}

// sweep ORs occ along each axis, high cells first: afterwards occ[c] is
// non-zero iff some marked cell is ≥ c on every axis.
func (g *grid) sweep(occ []byte) {
	for stride := 1; stride < g.cells; stride *= g.side {
		for base := 0; base < g.cells; base += stride * g.side {
			for k := base + (g.side-1)*stride - 1; k >= base; k-- {
				occ[k] |= occ[k+stride]
			}
		}
	}
}

// scanOrder returns the comparator of the scan order: descending sum, then
// descending attributes compared lexicographically, then ascending index.
func scanOrder(points [][]float64) func(a, b sortKey) int {
	return func(a, b sortKey) int {
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
	}
}

// radixBits is the digit width of sortKeys' radix passes: six passes
// cover a 64-bit key.
const radixBits = 11

// sortKeys sorts keys into scanOrder. A stable LSD radix sort on descKey
// orders them by sum, and only runs of equal sums go on to the comparator.
func sortKeys(points [][]float64, keys []sortKey) {
	const passes, mask = (64 + radixBits - 1) / radixBits, 1<<radixBits - 1
	n := len(keys)
	if n == 0 {
		return
	}
	hist := new([passes][1 << radixBits]int)
	for _, k := range keys {
		x := descKey(k.sum)
		for p := range hist {
			hist[p][x>>(radixBits*p)&mask]++
		}
	}
	src, dst := keys, make([]sortKey, n)
	first := descKey(keys[0].sum)
	for p := range hist {
		h, shift := &hist[p], radixBits*p
		if h[first>>shift&mask] == n {
			continue // every key has the same digit: the pass is the identity
		}
		pos := 0
		for b, c := range h {
			h[b] = pos
			pos += c
		}
		for _, k := range src {
			b := descKey(k.sum) >> shift & mask
			dst[h[b]] = k
			h[b]++
		}
		src, dst = dst, src
	}
	copy(keys, src) // the passes may end in either buffer
	cmpKeys := scanOrder(points)
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j].sum == keys[i].sum {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], cmpKeys)
		}
		i = j
	}
}

// descKey maps a sum to a key whose ascending order is the sums'
// descending order: a negative sum keeps its bits (a larger magnitude
// comes later, and the sign bit puts it after every non-negative sum), a
// non-negative one has every bit but the sign flipped. −0 and +0 share a
// key, as they compare equal.
func descKey(s float64) uint64 {
	if s == 0 {
		s = 0 // −0 → +0
	}
	b := math.Float64bits(s)
	return b ^ ^uint64(int64(b)>>63)>>1
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
