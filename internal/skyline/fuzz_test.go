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
	// Equal-sum points, a duplicate among them, on both sides of the
	// middle shard boundary of 40 rows (two shards of 20 at two workers).
	straddle := make([][]float64, 40)
	for i := range straddle {
		straddle[i] = []float64{float64(i%7) / 8, float64(i%5) / 8}
	}
	straddle[18], straddle[19], straddle[20], straddle[21] = []float64{1, 2}, []float64{2, 1}, []float64{1.5, 1.5}, []float64{1, 2}
	f.Add(fuzzBytes(straddle))
	f.Fuzz(func(t *testing.T, data []byte) { matchesBNL(t, fuzzPoints(data)) })
}

// matchesBNL requires ComputeOpts, serially and at two and four workers, to
// return exactly ComputeBNL's skyline of a finite point set; an empty set
// passes. From 2·par.Grain points on, the front end runs in two shards,
// and from 4·par.Grain on in four.
func matchesBNL(t *testing.T, pts [][]float64) {
	t.Helper()
	if len(pts) == 0 {
		return
	}
	want, err := ComputeBNL(pts)
	if err != nil {
		t.Fatalf("ComputeBNL rejected finite input: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := ComputeOpts(context.Background(), pts, ComputeOptions{Workers: workers})
		if err != nil {
			t.Fatalf("ComputeOpts: %v", err)
		}
		if !equalInts(got, want) {
			t.Fatalf("workers=%d: ComputeOpts %v, BNL %v on %v", workers, got, want, pts)
		}
	}
}

// nearTieBases is the lattice FuzzComputeOptsNearTies draws values from:
// near-equal pairs that share a 15-bit code, signed zeros' neighbours,
// subnormals, and bounds wide enough to overflow hi−lo.
var nearTieBases = [16]float64{
	-1.7e308, -1000, -1, -5e-324, 0, 5e-324, 1e-300, 1e-9,
	0.5, 0.5 + 0x1p-20, 1, 1 + 0x1p-40, 3, 1000, 1e300, 1.7e308,
}

// nearTiePoints decodes fuzz bytes into a tie-heavy point set: byte 0
// picks d ∈ [1, 9], bytes 1–2 are a mask of flat attributes (every row
// takes row 0's value there), and each following byte is one value, row-
// major, for at most 128 whole rows. A value byte's low 4 bits pick a
// lattice base, bits 4–6 an offset of −3…+4 ulps, and bit 7 copies the
// previous row's value instead, which makes duplicates.
func nearTiePoints(data []byte) [][]float64 {
	if len(data) < 3 {
		return nil
	}
	d := 1 + int(data[0]%9)
	flat := int(data[1]) | int(data[2])<<8
	data = data[3:]
	n := min(len(data)/d, 128)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			b := data[i*d+j]
			switch {
			case i > 0 && flat>>j&1 == 1:
				p[j] = pts[0][j]
			case i > 0 && b&0x80 != 0:
				p[j] = pts[i-1][j]
			default:
				v := nearTieBases[b&15]
				for k := int(b>>4&7) - 3; k != 0; {
					if k > 0 {
						v, k = math.Nextafter(v, math.Inf(1)), k-1
					} else {
						v, k = math.Nextafter(v, math.Inf(-1)), k+1
					}
				}
				p[j] = v
			}
		}
		pts[i] = p
	}
	return pts
}

// FuzzComputeOptsNearTies requires ComputeOpts to return exactly the
// block-nested-loop skyline on near-tie inputs, where many values collide
// in the packed pre-test's codes and only the exact test can separate
// them.
func FuzzComputeOptsNearTies(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0x38, 0x38, 0x39, 0x38, 0x49, 0x38, 0x88, 0x88, 0x3a, 0x29, 0x89, 0x38})
	f.Add([]byte{8, 0b101, 0, 0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x3f, 0x30, 0x3e, 0x31, 0x3d, 0x32, 0x3c, 0x33, 0x3b, 0x34, 0x3a, 0x35, 0x39, 0x36, 0x38, 0x37, 0x37, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{0, 0, 0, 0x30, 0x3f, 0x30, 0x3f, 0x04, 0x05, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) { matchesBNL(t, nearTiePoints(data)) })
}
