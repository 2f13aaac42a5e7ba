package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	fam "github.com/regretlab/fam"
)

// mix is the splitmix64 finalizer: every seed the benchmark uses is derived
// from the --seed argument through it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dataSeed seeds every workload's points. The points stay fixed while
// --seed varies the requests: a selection's ARR moves by ±30% between
// datasets drawn with different seeds (its few extreme points decide it),
// but by a few percent between sampling seeds on one dataset, so a
// per-seed dataset would leave arr_mean and the latencies too noisy to
// gate.
const dataSeed = 20190408

// requestSeed is the sampling seed of request i of a run seeded by seed.
// Index -1 is the set-up warm-up request, which no measured request
// repeats.
func requestSeed(seed uint64, i int) uint64 { return mix(seed ^ mix(uint64(i+2))) }

// newRand returns the workload's own random stream for one purpose
// (stream), so adding a draw to one stream never shifts another.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix(seed), mix(seed^stream)))
}

// anticorrelated draws n points of [0,1]^d near the hyperplane Σx = d/2,
// after Börzsönyi, Kossmann and Stocker: a point starts at a plane offset
// v ~ N(0.5, 0.05) on every attribute, random transfers between
// neighbouring attributes move it along the plane, and a point that leaves
// the unit box is drawn again. Excelling on one attribute costs the
// others, so the skyline is a large share of the points.
func anticorrelated(n, d int, seed uint64) *fam.Dataset {
	r := newRand(seed, 1)
	flat := make([]float64, n*d)
	pts := make([][]float64, n)
	for i := range pts {
		p := flat[i*d : (i+1)*d : (i+1)*d]
		for {
			v := 0.5 + 0.05*r.NormFloat64()
			l := math.Min(v, 1-v)
			for j := range p {
				p[j] = v
			}
			for j := range p {
				h := (2*r.Float64() - 1) * l
				p[j] += h
				p[(j+1)%d] -= h
			}
			if inUnitBox(p) {
				break
			}
		}
		pts[i] = p
	}
	return &fam.Dataset{Name: fmt.Sprintf("anticorrelated-n%d-d%d", n, d), Points: pts}
}

func inUnitBox(p []float64) bool {
	for _, v := range p {
		if v < 0 || v > 1 {
			return false
		}
	}
	return true
}

// answer is what the checks compare: the selected (or evaluated) dataset
// rows and the bits of their average regret ratio.
type answer struct {
	indices []int
	arr     float64
}

func (a answer) equal(b answer) bool {
	if math.Float64bits(a.arr) != math.Float64bits(b.arr) || len(a.indices) != len(b.indices) {
		return false
	}
	for i := range a.indices {
		if a.indices[i] != b.indices[i] {
			return false
		}
	}
	return true
}

func (a answer) String() string {
	return fmt.Sprintf("%v arr=%x", a.indices, math.Float64bits(a.arr))
}

// digest hashes answers in request order: equal digests mean bit-equal
// answers to the same requests.
func digest(answers []answer) string {
	h := sha256.New()
	for i, a := range answers {
		fmt.Fprintf(h, "%d:%v:%x\n", i, a.indices, math.Float64bits(a.arr))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
