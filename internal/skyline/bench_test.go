package skyline

import (
	"context"
	"testing"

	"github.com/regretlab/fam/internal/dataset"
)

var benchSkyline []int

// BenchmarkComputeOptsAnticorrelated times the SFS window scan on 5·10⁴
// anticorrelated 4-d points — the one-shot selection's first stage —
// serially and at the default worker count.
func BenchmarkComputeOptsAnticorrelated(b *testing.B) {
	ds, err := dataset.Synthetic(50_000, 4, dataset.Anticorrelated, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=default", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sky, err := ComputeOpts(context.Background(), ds.Points, ComputeOptions{Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				benchSkyline = sky
			}
			b.ReportMetric(float64(len(benchSkyline)), "skyline")
		})
	}
}

// BenchmarkComputeOptsIndependent1e6 times the scan on 10⁶ independent 4-d
// points, the grid prefilter's best case: it drops 88% of the points
// before the sort. The anticorrelated case above is its worst case.
func BenchmarkComputeOptsIndependent1e6(b *testing.B) {
	ds, err := dataset.Synthetic(1_000_000, 4, dataset.Independent, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sky, err := ComputeOpts(context.Background(), ds.Points, ComputeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchSkyline = sky
	}
	b.ReportMetric(float64(len(benchSkyline)), "skyline")
}
