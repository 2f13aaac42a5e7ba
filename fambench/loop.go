package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	fam "github.com/regretlab/fam"
)

// sample is one request of a run, in either the untraced run or the
// traced replay.
type sample struct {
	idx  int
	eval bool          // an evaluation request; the others are selections
	lat  time.Duration // completion minus due time
	svc  time.Duration // completion minus send time
	late time.Duration // send minus due time: how late the load generator ran
	ans  answer
	err  error

	// Replays only: the same request's untraced in-process latency and
	// telemetry, the traced root span, and the pipeline's work counts.
	inproc time.Duration
	tel    *fam.Telemetry
	root   time.Duration
	cnt    counters
}

// closedLoop is one client sending request i+1 only after request i
// completed. No request at or past limit (when limit ≥ 0) is sent, and the
// loop ends once d has elapsed and every request below minCount was sent.
// A closed loop's request is due when the previous one completes, so late
// is the client's own dispatch gap. A non-nil probe runs before the first
// request, between requests once it is due, and after the last; the
// returned time leaves the probes out.
func closedLoop(ctx context.Context, minCount, limit int, d time.Duration, probe *hostProbe, do func(ctx context.Context, i int) sample) ([]sample, time.Duration) {
	var out []sample
	if probe != nil {
		probe.run()
	}
	start := time.Now()
	due := start
	var probing time.Duration
	for i := 0; ctx.Err() == nil; i++ {
		if (limit >= 0 && i >= limit) || (i >= minCount && time.Since(start) >= d) {
			break
		}
		sent := time.Now()
		s := do(ctx, i)
		done := time.Now()
		s.idx, s.late, s.svc, s.lat = i, sent.Sub(due), done.Sub(sent), done.Sub(sent)
		out = append(out, s)
		if probe != nil && probe.due() {
			probing += probe.run()
		}
		due = time.Now()
	}
	elapsed := time.Since(start) - probing
	if probe != nil {
		probe.run()
	}
	return out, elapsed
}

// openLoop sends request i at start+due[i] whether or not earlier
// requests have completed, and times each from its due time, so a stall
// also counts against the requests queued behind it.
func openLoop(ctx context.Context, due []time.Duration, do func(ctx context.Context, i int) sample) ([]sample, time.Duration) {
	out := make([]sample, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range due {
		at := start.Add(due[i])
		// The runtime's idle wait has millisecond resolution, so a sleep
		// can wake up to a millisecond late: sleep to just short of the
		// due time and yield until it arrives.
		time.Sleep(time.Until(at) - 2*time.Millisecond)
		for time.Now().Before(at) {
			runtime.Gosched()
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			sent := time.Now()
			s := do(ctx, i)
			done := time.Now()
			s.idx, s.late, s.svc, s.lat = i, sent.Sub(at), done.Sub(sent), done.Sub(at)
			out[i] = s
		}(i, at)
	}
	wg.Wait()
	return out, time.Since(start)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}
