package main

import (
	"sort"
	"time"
)

// The timing metrics are reported at a reference host speed. The shared
// host this benchmark was built on (2 vCPUs of a Xeon VM) slows down by up
// to 1.8× for minutes at a time, with steal time near zero, and that moved
// every latency of a run by as much: oneshot-skyline's p50 read 103–117 ms
// in one quarter of an hour and 60–69 ms in the next. So each untraced run
// also times a fixed reference computation, hostProbe, between the
// requests of a closed loop, and divides its times by how much slower than
// probeRefMS the probe ran. The probe is the benchmark's own frozen code,
// not the program's, so no change to the program moves it. NOTES.md gives
// the spreads with and without the division.

// probeRefMS is about the probe's median time on the reference host in a
// quiet period. It only sets the scale of the reported times.
const probeRefMS = 16.0

// probeEvery is the least time between two probes of a run.
const probeEvery = 250 * time.Millisecond

// hostProbe is a sort-filter skyline scan over fixed anticorrelated points,
// the same kind of work as the program's skyline layer: dominance tests
// against a growing window, single-threaded.
type hostProbe struct {
	flat   []float64 // points, d per row, in descending order of their sum
	d      int
	window []int32 // row starts of the skyline so far; reused by every probe

	times []float64 // ms of every probe
	last  time.Time
}

func newHostProbe() *hostProbe {
	ds := anticorrelated(probePoints, 4, dataSeed+1)
	type row struct {
		p   []float64
		sum float64
	}
	rows := make([]row, len(ds.Points))
	for i, p := range ds.Points {
		rows[i] = row{p: p}
		for _, x := range p {
			rows[i].sum += x
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].sum > rows[j].sum })
	h := &hostProbe{d: 4, flat: make([]float64, 0, len(rows)*4)}
	for _, r := range rows {
		h.flat = append(h.flat, r.p...)
	}
	h.window = make([]int32, 0, len(rows))
	return h
}

// probePoints sizes the probe to about probeRefMS on the reference host.
const probePoints = 20_000

// scan computes the skyline of the points into window. Sorted by
// descending sum, a point can only be dominated by one before it, so one
// pass against the window of undominated points finds the skyline.
func (h *hostProbe) scan() {
	d, f := h.d, h.flat
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

// run times one probe and returns its time.
func (h *hostProbe) run() time.Duration {
	start := time.Now()
	h.scan()
	h.last = time.Now()
	took := h.last.Sub(start)
	h.times = append(h.times, ms(took))
	return took
}

// due reports whether probeEvery has passed since the last probe.
func (h *hostProbe) due() bool { return time.Since(h.last) >= probeEvery }

// slowdown is the run's median probe time over probeRefMS: how much slower
// than the reference the host ran. A run that ran no probe reports 1.
func (h *hostProbe) slowdown() float64 {
	if len(h.times) == 0 {
		return 1
	}
	return quantile(h.times, 0.5) / probeRefMS
}
