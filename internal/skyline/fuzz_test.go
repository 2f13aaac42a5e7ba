package skyline

import (
	"context"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzPoints decodes fuzz bytes into a point set: the first byte picks
// d ∈ [1, 8], and each following 8 bytes are one little-endian float64,
// row-major, for at most 64 whole rows. Non-finite values are mapped to 0
// so every input exercises the scan rather than validation.
func fuzzPoints(data []byte) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	d := 1 + int(data[0]%8)
	data = data[1:]
	n := min(len(data)/(8*d), 64)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[(i*d+j)*8:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			p[j] = v
		}
		pts[i] = p
	}
	return pts
}

// fuzzBytes is the inverse of fuzzPoints for seeding the corpus.
func fuzzBytes(pts [][]float64) []byte {
	d := len(pts[0])
	out := []byte{byte(d - 1)}
	for _, p := range pts {
		for _, v := range p {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzComputeOpts requires the prefiltered, bucketed SFS scan to return
// exactly the block-nested-loop skyline on every small finite point set.
func FuzzComputeOpts(f *testing.F) {
	for _, pts := range sumTieCases {
		f.Add(fuzzBytes(pts))
	}
	f.Add(fuzzBytes([][]float64{{1, 1}, {1, 1}, {0, 0}}))
	f.Add(fuzzBytes([][]float64{{-1, 2, 0}, {2, -1, 0}, {0.5, 0.5, 0}, {0.5, 0.5, 0}}))
	// Grid widths that are not finite and positive: a subnormal width
	// (its scale overflows to +Inf) and a width hi−lo that overflows, at
	// d=1 and on the corners of a d=3 cube.
	for _, span := range [][2]float64{{0, 5e-324}, {-1.7e308, 1.7e308}} {
		f.Add(fuzzBytes([][]float64{{span[0]}, {span[1]}, {span[0]}}))
		var cube [][]float64
		for c := range 8 {
			cube = append(cube, []float64{span[c&1], span[c>>1&1], span[c>>2&1]})
		}
		f.Add(fuzzBytes(cube))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		if len(pts) == 0 {
			return
		}
		want, err := ComputeBNL(pts)
		if err != nil {
			t.Fatalf("ComputeBNL rejected finite input: %v", err)
		}
		for _, workers := range []int{1, 2} {
			got, err := ComputeOpts(context.Background(), pts, ComputeOptions{Workers: workers})
			if err != nil {
				t.Fatalf("ComputeOpts: %v", err)
			}
			if !equalInts(got, want) {
				t.Fatalf("workers=%d: ComputeOpts %v, BNL %v on %v", workers, got, want, pts)
			}
		}
	})
}
