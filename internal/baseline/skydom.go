package baseline

import (
	"context"
	"fmt"
	"sort"

	"github.com/regretlab/fam/internal/bitset"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/point"
	"github.com/regretlab/fam/internal/skyline"
)

// ErrInvalidSet is returned when an explicit selection set is empty,
// larger than the database, contains an out-of-range index, or repeats an
// index. It is core.ErrInvalidSet, so one errors.Is target matches the
// whole library; validation goes through core.ValidateSet.
var ErrInvalidSet = core.ErrInvalidSet

// SkyDom implements the representative-skyline selection of Lin et al.
// (ICDE 2007): choose k skyline points that together dominate the largest
// number of database points. Maximizing dominance coverage is a max-cover
// instance, solved greedily (the classic (1−1/e) heuristic, which is also
// what makes SKY-DOM expensive on large skylines — visible in the paper's
// query-time plots).
//
// Both hot loops are sharded across `workers` goroutines (0 = all CPUs,
// 1 = serial), dispatched on the optional externally owned pool (nil
// spawns per-call goroutines): the per-candidate dominance sets are built
// concurrently, and each greedy round fans the per-candidate coverage
// gains out across the workers. Every worker keeps the first strict
// maximum of its ascending index block and the merge visits workers in
// ascending order with a strict comparison, so the selected set is
// bit-identical to the serial lowest-index tie-break at any worker count.
func SkyDom(ctx context.Context, points [][]float64, k, workers int, pool *par.Pool) ([]int, error) {
	if _, err := point.Validate(points); err != nil {
		return nil, err
	}
	n := len(points)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrBadK, k, n)
	}
	sky, err := skyline.ComputeOpts(ctx, points, skyline.ComputeOptions{Workers: workers, Pool: pool})
	if err != nil {
		return nil, err
	}
	domSets, err := skyline.DominanceSets(ctx, points, sky, workers, pool)
	if err != nil {
		return nil, err
	}

	covered := bitset.New(n)
	used := make([]bool, len(sky))
	// Gain scans cost O(n/64) each — cheap items, so workers shed on small
	// skylines rather than paying dispatch for nothing.
	nw := par.Bounded(workers, len(sky))
	type best struct {
		idx, gain int
	}
	locals := make([]best, nw)
	var selected []int
	for len(selected) < k && len(selected) < len(sky) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for w := range locals {
			locals[w] = best{idx: -1, gain: -1}
		}
		if err := pool.Shards(ctx, nw, len(sky), func(w, lo, hi int) {
			b := best{idx: -1, gain: -1}
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				if used[i] {
					continue
				}
				if gain := covered.AndNotCount(domSets[i]); gain > b.gain {
					b = best{idx: i, gain: gain}
				}
			}
			locals[w] = b
		}); err != nil {
			return nil, err
		}
		// Ascending worker blocks + strict comparison = serial first-max.
		bestIdx, bestGain := -1, -1
		for _, b := range locals {
			if b.idx >= 0 && b.gain > bestGain {
				bestIdx, bestGain = b.idx, b.gain
			}
		}
		if bestIdx == -1 {
			break
		}
		used[bestIdx] = true
		covered.UnionWith(domSets[bestIdx])
		selected = append(selected, sky[bestIdx])
	}
	// If the skyline is smaller than k, pad with the lowest-index
	// non-skyline points so the result always has k members.
	if len(selected) < k {
		inSel := make(map[int]bool, len(selected))
		for _, p := range selected {
			inSel[p] = true
		}
		for p := 0; p < n && len(selected) < k; p++ {
			if !inSel[p] {
				selected = append(selected, p)
			}
		}
	}
	sort.Ints(selected)
	return selected, nil
}

// DominanceCoverage returns how many points of the database are dominated
// by at least one member of the set — the objective SkyDom maximizes. The
// set must be non-empty with valid, distinct indices (ErrInvalidSet
// otherwise).
func DominanceCoverage(points [][]float64, set []int) (int, error) {
	if _, err := point.Validate(points); err != nil {
		return 0, err
	}
	if err := core.ValidateSet(set, len(points)); err != nil {
		return 0, err
	}
	covered := make([]bool, len(points))
	count := 0
	for _, s := range set {
		for j := range points {
			if !covered[j] && j != s && point.Dominates(points[s], points[j]) {
				covered[j] = true
				count++
			}
		}
	}
	return count, nil
}
