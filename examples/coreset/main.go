// Command coreset walks through the ε-kernel candidate prepass at the
// n = 10⁶ scale the knob exists for.
//
// The coreset filter keeps a candidate iff it comes within ε of some
// sampled user's best utility. Every user's argmax survives, so the
// reported metrics stay database-level quantities; what the knob trades
// is solution quality for a candidate set small enough that the
// GREEDY-SHRINK family runs comfortably at a million points. The
// per-seed filter is a heuristic with no bound on that cost: with points
// (1,0), (0,1) and (0.9,0.9), users (1,0) and (0,1) equally likely, K=1
// and ε=0.05, the ARR is 0.10 unpruned and 0.50 pruned.
//
// The walkthrough runs three variants over one synthetic 10⁶-point
// dataset:
//
//  1. skyline only (the default pipeline) — the baseline candidate set;
//  2. skyline + coreset — the prepass pruning the skyline further;
//  3. coreset only (DisableSkyline) — the prepass carrying all the
//     pruning, 10⁶ raw candidates down to a few ten-thousand, which is
//     the regime where the skyline itself is the preprocessing
//     bottleneck (anti-correlated data at scale).
//
// Then it sweeps CoresetEps on a smaller instance to show the
// quality/pruning dial. A candidate is dropped only when it is more
// than ε below best for every sampled user, so smaller ε sets a higher
// bar and prunes harder; the sweep prints how far each ε moves the ARR.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	fam "github.com/regretlab/fam"
)

func main() {
	ctx := context.Background()
	const n = 1_000_000
	fmt.Printf("generating %d points (4-d, independent)...\n", n)
	ds, err := fam.Synthetic(n, 4, fam.Independent, 1)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := fam.UniformLinear(ds.Dim())
	if err != nil {
		log.Fatal(err)
	}

	base := fam.Query{
		Data: ds, Dist: dist,
		K: 10, Algorithm: fam.GreedyShrinkLazy,
		SampleSize: 200, Seed: 1,
	}
	variants := []struct {
		label string
		mod   func(*fam.Query)
	}{
		{"skyline only", func(q *fam.Query) {}},
		{"skyline + coreset", func(q *fam.Query) { q.Coreset = true }},
		{"coreset only (no skyline)", func(q *fam.Query) { q.Coreset = true; q.DisableSkyline = true }},
	}
	for _, v := range variants {
		q := base
		v.mod(&q)
		start := time.Now()
		res, tel, err := fam.Select(ctx, q, fam.Exec{})
		if err != nil {
			log.Fatal(err)
		}
		candidates := res.SkylineSize
		if res.CoresetSize >= 0 {
			candidates = res.CoresetSize
		}
		fmt.Printf("%-26s candidates=%-6d (skyline %d)  preprocess=%-9v solve=%-9v ARR=%.6f  total=%v\n",
			v.label, candidates, res.SkylineSize,
			tel.Preprocess.Round(time.Millisecond), tel.Query.Round(time.Millisecond),
			res.Metrics.ARR, time.Since(start).Round(time.Millisecond))
	}

	// The ε dial on a smaller anti-correlated instance (big skylines are
	// where the prepass earns its keep): pruning strength rises as ε
	// shrinks, printed with the ARR's drift from the ε-free answer.
	fmt.Println("\nCoresetEps sweep (n=50k anti-correlated, greedy-shrink-lazy):")
	small, err := fam.Synthetic(50_000, 4, fam.Anticorrelated, 1)
	if err != nil {
		log.Fatal(err)
	}
	sq := fam.Query{Data: small, Dist: dist, K: 10, Algorithm: fam.GreedyShrinkLazy, SampleSize: 200, Seed: 1}
	ref, _, err := fam.Select(ctx, sq, fam.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  eps=off   candidates=%-5d ARR=%.6f\n", ref.SkylineSize, ref.Metrics.ARR)
	for _, eps := range []float64{0.01, 0.05, 0.2} {
		q := sq
		q.Coreset, q.CoresetEps = true, eps
		res, tel, err := fam.Select(ctx, q, fam.Exec{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  eps=%-5g candidates=%-5d ARR=%.6f  (drift %+.6f)  solve=%v\n",
			eps, res.CoresetSize, res.Metrics.ARR, res.Metrics.ARR-ref.Metrics.ARR,
			tel.Query.Round(time.Millisecond))
	}
}
