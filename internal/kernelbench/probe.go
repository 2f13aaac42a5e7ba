package kernelbench

import (
	"sort"
	"time"
)

// hostProbe is the sweep's yardstick for host speed: a single-threaded
// sort-filter skyline scan over fixed anticorrelated points, the same
// kind of work as the program's skyline layer. The points come from the
// probe's own generator and the scan is the probe's own code, so no
// change to the program moves the probe's time; only the host does.
// Gate divides it out, so a baseline recorded on a faster host still
// gates a run on a slower one.
type hostProbe struct {
	flat   []float64 // points, probeDim per row, in descending order of their sum
	window []int32   // row starts of the skyline so far; reused by every probe
}

const (
	probePoints = 10_000
	probeDim    = 4
)

func newHostProbe() *hostProbe {
	// splitmix64: a fixed stream, independent of the program's RNG.
	state := uint64(0x9e3779b97f4a7c15)
	uniform := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	// Anticorrelated: each point lies near the plane Σx = probeDim/2,
	// spread uniformly across it, so about a sixth of them are skyline.
	type row struct {
		p   [probeDim]float64
		sum float64
	}
	rows := make([]row, probePoints)
	for i := range rows {
		target := probeDim * (0.5 + 0.15*(uniform()+uniform()-1))
		var raw float64
		for j := range rows[i].p {
			rows[i].p[j] = uniform()
			raw += rows[i].p[j]
		}
		for j := range rows[i].p {
			rows[i].p[j] *= target / raw
			rows[i].sum += rows[i].p[j]
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].sum > rows[j].sum })
	h := &hostProbe{flat: make([]float64, 0, probePoints*probeDim), window: make([]int32, 0, probePoints)}
	for _, r := range rows {
		h.flat = append(h.flat, r.p[:]...)
	}
	return h
}

// scan computes the skyline of the points into window. Sorted by
// descending sum, a point can only be dominated by one before it, so one
// pass against the window of undominated points finds the skyline.
func (h *hostProbe) scan() {
	const d = probeDim
	f := h.flat
	h.window = h.window[:0]
	for s := 0; s < len(f); s += d {
		p := f[s : s+d : s+d]
		dominated := false
		for _, ws := range h.window {
			w := f[ws : int(ws)+d : int(ws)+d]
			ge, gt := true, false
			for j, x := range p {
				if w[j] < x {
					ge = false
					break
				}
				if w[j] > x {
					gt = true
				}
			}
			if ge && gt {
				dominated = true
				break
			}
		}
		if !dominated {
			h.window = append(h.window, int32(s))
		}
	}
}

// run times one probe in nanoseconds.
func (h *hostProbe) run() int64 {
	start := time.Now()
	h.scan()
	return int64(time.Since(start))
}
