// Package dp2d implements the exact dynamic program of Section IV: for a
// 2-dimensional database under linear utility functions whose weights are
// uniform on [0,1]², it finds the size-k set minimizing the exact average
// regret ratio in O(n⁴) (n = skyline size).
//
// The recurrence (Theorem 6), written in tangent space t = w2/w1:
//
//	arr*(r, i, tl) = min over j ∈ (i, n] with t(i,j) ≥ tl of
//	                 arr({p_i}, F[tl, t(i,j)]) + arr*(r−1, j, t(i,j))
//	                 — or arr({p_i}, F[tl, ∞]) to stop at p_i —
//
// with base case arr*(0, i, tl) = arr({p_i}, F[tl, ∞]). Skyline points are
// sorted by strictly descending first attribute, so t(i,j), the tangent
// where p_j overtakes p_i, is positive and finite for i < j. The term
// arr({p_i}, F[a,b]) integrates the regret of showing p_i against the
// database envelope over tangents [a, b] using the closed forms of
// internal/geom.
//
// The DP is evaluated bottom-up, one layer r at a time: every cell of
// layer r reads only layer r−1, so the cells within a layer are
// independent and are sharded across a worker pool (internal/par). Each
// cell's transition minimum is still taken by one worker scanning its
// successors in ascending order with a strict comparison, so the chosen
// parent — and therefore the reconstructed set, its exact arr, and the
// full DP tables — are bit-identical at any worker count.
package dp2d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/regretlab/fam/internal/geom"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/skyline"
)

// Result is the output of SolveOpts.
type Result struct {
	// Set holds the selected point indices into the original point set,
	// ascending.
	Set []int
	// ARR is the exact average regret ratio of Set under the uniform-box
	// linear distribution.
	ARR float64
	// SkylineSize is the number of skyline points the DP ran on.
	SkylineSize int
}

// Options configures SolveOpts.
type Options struct {
	// Parallelism bounds the worker goroutines sharding each DP layer
	// (and the per-point envelope prefix sums). Zero uses every CPU
	// (GOMAXPROCS); one forces serial execution. Results are
	// bit-identical at any setting.
	Parallelism int
	// Pool is an optional externally owned worker pool the layer sweeps
	// dispatch on; nil spawns per-call goroutines.
	Pool *par.Pool
}

// ErrBadK is returned when k is not positive.
var ErrBadK = errors.New("dp2d: k must be positive")

// SolveOpts runs the dynamic program on the (full) 2-d point set.
// Dominated points are removed first — they are never anyone's best
// point, so the optimum over the skyline equals the optimum over the
// database.
func SolveOpts(ctx context.Context, points [][]float64, k int, opts Options) (Result, error) {
	res, _, err := solve(ctx, points, k, opts)
	return res, err
}

// tables is the DP state exposed to in-package determinism tests: the
// value and parent tables, indexed [r][i][prev+1].
type tables struct {
	memo   [][][]float64
	parent [][][]int
}

func solve(ctx context.Context, points [][]float64, k int, opts Options) (Result, tables, error) {
	if k <= 0 {
		return Result{}, tables{}, fmt.Errorf("%w: k=%d", ErrBadK, k)
	}
	sky, err := skyline.Skyline2DSorted(points)
	if err != nil {
		return Result{}, tables{}, err
	}
	m := len(sky)
	// Work points in DP order (descending first attribute).
	pts := make([][]float64, m)
	for i, idx := range sky {
		pts[i] = points[idx]
	}
	if k >= m {
		// Whole skyline fits: exact arr is 0.
		out := append([]int(nil), sky...)
		sort.Ints(out)
		return Result{Set: out, ARR: 0, SkylineSize: m}, tables{}, nil
	}

	dbEnv, err := geom.ComputeEnvelope(points)
	if err != nil {
		return Result{}, tables{}, err
	}

	// single(i, a, b) = arr({p_i}, F[a, b]): regret of showing p_i alone to
	// the users with tangents in [a, b], against the database envelope.
	// Implemented as a difference of the cumulative integral
	// A_i(t) = arr({p_i}, F[0, t]), with per-point prefix sums over the
	// database envelope segments (O(E) per point, O(log E) per query) —
	// the DP issues O(k·n³) single() calls, so per-call cost dominates the
	// total runtime. Every point is evaluated by the bottom-up DP, so all
	// prefix rows are built up front — sharded across workers, each row
	// independently and deterministically, which also makes single() a
	// pure read during the parallel layer sweeps.
	envStarts := make([]float64, len(dbEnv.Idx))
	for s := 1; s < len(dbEnv.Idx); s++ {
		envStarts[s] = dbEnv.Breaks[s-1]
	}
	prefix := make([][]float64, m) // prefix[i][s] = A_i(envStarts[s])
	workers := par.Workers(opts.Parallelism, m)
	if err := opts.Pool.Shards(ctx, workers, m, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			pre := make([]float64, len(dbEnv.Idx)+1)
			for s, best := range dbEnv.Idx {
				pre[s+1] = pre[s] + geom.RegretIntegral(pts[i], points[best], envStarts[s], dbEnv.Breaks[s])
			}
			prefix[i] = pre
		}
	}); err != nil {
		return Result{}, tables{}, err
	}
	cumulative := func(i int, t float64) float64 {
		if t <= 0 {
			return 0
		}
		// Find the segment containing t: the first break >= t.
		s := sort.SearchFloat64s(dbEnv.Breaks, t)
		if s >= len(dbEnv.Idx) {
			return prefix[i][len(dbEnv.Idx)]
		}
		best := dbEnv.Idx[s]
		return prefix[i][s] + geom.RegretIntegral(pts[i], points[best], envStarts[s], t)
	}
	single := func(i int, a, b float64) float64 {
		v := cumulative(i, b) - cumulative(i, a)
		if v < 0 {
			return 0 // round-off guard
		}
		return v
	}

	// boundary(i, j) is the tangent where p_j (j > i in DP order) overtakes
	// p_i: equality of p_i[0] + t p_i[1] = p_j[0] + t p_j[1].
	boundary := func(i, j int) float64 {
		if j == m {
			return math.Inf(1)
		}
		return (pts[i][0] - pts[j][0]) / (pts[j][1] - pts[i][1])
	}

	// memo[r][i][prev+1] with tl = 0 when prev == -1, else boundary(prev, i).
	// Layer r answers "minimum arr over the tangents ≥ tl when p_i is shown
	// from tl and at most r more points may follow". Reachable cells: the
	// recurrence only ever queries prev ∈ [0, i) at layers below the top
	// and prev = -1 at the top layer (the openers), so those are the cells
	// each sweep computes.
	memo := make([][][]float64, k)
	parent := make([][][]int, k) // chosen successor j (m means "stop")
	for r := 0; r < k; r++ {
		memo[r] = make([][]float64, m)
		parent[r] = make([][]int, m)
		for i := 0; i < m; i++ {
			memo[r][i] = make([]float64, m+1)
			parent[r][i] = make([]int, m+1)
		}
	}

	// cell computes one (r, i, prev) state from layer r-1: the "stop"
	// option against every legal successor, scanned in ascending order
	// with a strict tolerance comparison — the same order and arithmetic
	// at any worker count.
	cell := func(r, i, prev int) {
		tl := 0.0
		if prev >= 0 {
			tl = boundary(prev, i)
		}
		best := single(i, tl, math.Inf(1))
		bestJ := m
		if r > 0 {
			for j := i + 1; j < m; j++ {
				tj := boundary(i, j)
				if tj < tl {
					continue
				}
				v := single(i, tl, tj) + memo[r-1][j][i+1]
				if v < best-1e-15 {
					best, bestJ = v, j
				}
			}
		}
		memo[r][i][prev+1] = best
		parent[r][i][prev+1] = bestJ
	}

	// Bottom-up layer sweeps: rows of a layer are sharded across workers;
	// every cell only reads the completed layer r-1 (and the immutable
	// prefix sums), so there is no cross-worker communication inside a
	// layer and the join between layers is the only synchronization.
	for r := 0; r < k; r++ {
		if err := opts.Pool.Shards(ctx, workers, m, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				if r == k-1 {
					cell(r, i, -1) // openers: only tl = 0 is ever queried
					continue
				}
				for prev := 0; prev < i; prev++ {
					cell(r, i, prev)
				}
			}
		}); err != nil {
			return Result{}, tables{}, err
		}
	}
	// k == 1 has a single layer serving as both base case and opener row;
	// the r == k-1 branch above already handled it.

	bestStart, bestVal := -1, math.Inf(1)
	for i := 0; i < m; i++ {
		// p_i can open the solution only if it is the best shown point at
		// t = 0; any i may be tried (Theorem 6 scans all) — suboptimal
		// openers are simply never minimal.
		if v := memo[k-1][i][0]; v < bestVal-1e-15 {
			bestVal, bestStart = v, i
		}
	}

	// Reconstruct the chain.
	var chain []int
	r, i, prev := k-1, bestStart, -1
	for {
		chain = append(chain, i)
		j := parent[r][i][prev+1]
		if j == m || r == 0 {
			break
		}
		prev, i, r = i, j, r-1
	}
	out := make([]int, len(chain))
	for idx, c := range chain {
		out[idx] = sky[c]
	}
	// The recurrence optimizes over "at most r points", so the chain may be
	// shorter than k. Padding with unused skyline points cannot increase
	// arr (Lemma 1) and keeps the value optimal; re-deriving the exact arr
	// of the padded set keeps the reported number honest.
	if len(out) < k {
		used := make(map[int]bool, len(out))
		for _, p := range out {
			used[p] = true
		}
		for _, p := range sky {
			if len(out) == k {
				break
			}
			if !used[p] {
				out = append(out, p)
			}
		}
		arr, err := geom.ExactARR(points, out)
		if err != nil {
			return Result{}, tables{}, err
		}
		bestVal = arr
	}
	sort.Ints(out)
	return Result{Set: out, ARR: bestVal, SkylineSize: m}, tables{memo: memo, parent: parent}, nil
}
