// Package kernelbench runs the coreset/kernel performance sweep behind
// BENCH_kernel.json: one-shot fam.Select calls over synthetic datasets
// at n ∈ {10⁴, 10⁵, 10⁶}, per (n, algorithm, coreset on/off) variant,
// reporting solver ns/op together with the deterministic candidate
// counts (skyline and coreset sizes). famexp -kernel-bench emits the
// report and gates it against a committed baseline: candidate counts
// must match exactly (they are machine-independent), and solver time,
// rescaled by a host probe timed in both runs, may not regress beyond
// the gate fraction.
package kernelbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	fam "github.com/regretlab/fam"
)

// SchemaVersion identifies the BENCH_kernel.json layout.
const SchemaVersion = 1

// Row is one measured variant of the sweep.
type Row struct {
	// N is the dataset size; Corr the synthetic correlation class.
	N    int    `json:"n"`
	Corr string `json:"corr"`
	// Algorithm is the solver's short name.
	Algorithm string `json:"algorithm"`
	// Coreset reports whether the ε-kernel prepass was enabled; NoSky
	// marks the variant that disables the skyline so the coreset alone
	// carries the pruning (the n=10⁶ demonstration row).
	Coreset bool `json:"coreset"`
	NoSky   bool `json:"nosky,omitempty"`
	// SkylineSize and Candidates are the deterministic candidate counts
	// before and after pruning (Candidates = −1 when Coreset is off).
	SkylineSize int `json:"skyline_size"`
	Candidates  int `json:"candidates"`
	// NsPerOp is the fastest solver (query-phase) wall time over the
	// row's runs; PreprocessNs the fastest preprocessing time (skyline,
	// sampling, coreset, matrix build), taken independently, so it need
	// not come from the same run.
	NsPerOp      int64 `json:"ns_per_op"`
	PreprocessNs int64 `json:"preprocess_ns"`
	// ARR records the reported quality so baseline diffs also show any
	// answer drift.
	ARR float64 `json:"arr"`
}

// Report is the BENCH_kernel.json document.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Label         string `json:"label,omitempty"`
	// ProbeNs is the median time of the single-threaded host probe,
	// timed before every variant of the run: Gate's measure of how fast
	// the host ran.
	ProbeNs int64 `json:"probe_ns,omitempty"`
	Rows    []Row `json:"rows"`
}

// variant is one sweep entry; runs is the best-of count (wall-clock
// noise suppression for the cheap rows, a single run for the 10⁶ ones).
type variant struct {
	n       int
	corr    fam.Correlation
	algo    fam.Algorithm
	coreset bool
	noSky   bool
	runs    int
}

// sweep returns the variants for maxN, the largest dataset size to
// include. Every unpruned variant is omitted at 10⁶, where only the
// coreset makes the GREEDY-SHRINK family feasible; the NoSky row
// demonstrates the coreset pruning 10⁶ raw candidates without skyline
// help. The unpruned 10⁵ rows run the solvers on the whole 7k-point
// skyline, which the delta strategy's O(log|S|) argmin keeps cheap.
func sweep(maxN int) []variant {
	var out []variant
	shrinkFamily := []fam.Algorithm{fam.GreedyShrink, fam.GreedyShrinkLazy, fam.GreedyAdd}
	// Best-of counts rise as rows shrink: millisecond-scale solver times
	// need several samples before a 15% regression gate is meaningful.
	if maxN >= 10_000 {
		for _, a := range shrinkFamily {
			out = append(out,
				variant{n: 10_000, corr: fam.Anticorrelated, algo: a, coreset: false, runs: 9},
				variant{n: 10_000, corr: fam.Anticorrelated, algo: a, coreset: true, runs: 9})
		}
	}
	if maxN >= 100_000 {
		for _, a := range shrinkFamily {
			out = append(out,
				variant{n: 100_000, corr: fam.Anticorrelated, algo: a, coreset: false, runs: 5},
				variant{n: 100_000, corr: fam.Anticorrelated, algo: a, coreset: true, runs: 5})
		}
	}
	if maxN >= 1_000_000 {
		for _, a := range shrinkFamily {
			out = append(out, variant{n: 1_000_000, corr: fam.Independent, algo: a, coreset: true, runs: 1})
		}
		out = append(out, variant{n: 1_000_000, corr: fam.Independent, algo: fam.GreedyShrinkLazy,
			coreset: true, noSky: true, runs: 1})
	}
	return out
}

// Config parameterizes a sweep run.
type Config struct {
	// MaxN bounds the dataset sizes (10_000, 100_000, or 1_000_000).
	MaxN int
	// Seed drives dataset generation and utility sampling.
	Seed uint64
	// K and SampleSize fix the query shape; zero values take 10 and 200.
	K          int
	SampleSize int
	// Log, when non-nil, receives one progress line per variant.
	Log io.Writer
}

// Run executes the sweep and returns the report rows in sweep order.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.MaxN == 0 {
		cfg.MaxN = 100_000
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 200
	}
	datasets := map[int]*fam.Dataset{}
	rep := &Report{SchemaVersion: SchemaVersion}
	probe := newHostProbe()
	var probes []int64
	for _, v := range sweep(cfg.MaxN) {
		probes = append(probes, probe.run())
		ds, ok := datasets[v.n]
		if !ok {
			var err error
			ds, err = fam.Synthetic(v.n, 4, v.corr, cfg.Seed)
			if err != nil {
				return nil, err
			}
			datasets[v.n] = ds
		}
		dist, err := fam.UniformLinear(ds.Dim())
		if err != nil {
			return nil, err
		}
		q := fam.Query{
			Data: ds, Dist: dist,
			K: cfg.K, Algorithm: v.algo,
			SampleSize: cfg.SampleSize, Seed: cfg.Seed,
			DisableSkyline: v.noSky,
			Coreset:        v.coreset,
		}
		row := Row{N: v.n, Corr: v.corr.String(), Algorithm: v.algo.String(), Coreset: v.coreset, NoSky: v.noSky}
		for r := 0; r < v.runs; r++ {
			// A fixed worker count keeps the best-of-k timings comparable
			// across machines with different core counts (results are
			// bit-identical at any setting — only the wall clock moves).
			res, tel, err := fam.Select(ctx, q, fam.Exec{Parallelism: 4})
			if err != nil {
				return nil, fmt.Errorf("n=%d algo=%s coreset=%t: %w", v.n, v.algo, v.coreset, err)
			}
			row.observe(r == 0, tel)
			row.SkylineSize = res.SkylineSize
			row.Candidates = res.CoresetSize
			row.ARR = res.Metrics.ARR
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "n=%-8d %-18s coreset=%-5t nosky=%-5t candidates=%d/%d query=%v preprocess=%v\n",
				row.N, row.Algorithm, row.Coreset, row.NoSky, row.Candidates, row.SkylineSize,
				time.Duration(row.NsPerOp), time.Duration(row.PreprocessNs))
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
	rep.ProbeNs = probes[len(probes)/2]
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "host probe: median %v over %d probes\n", time.Duration(rep.ProbeNs), len(probes))
	}
	return rep, nil
}

// observe folds one run's timings into the row: NsPerOp and
// PreprocessNs each keep their own fastest value, first on the row's
// first run.
func (r *Row) observe(first bool, tel *fam.Telemetry) {
	if first || int64(tel.Query) < r.NsPerOp {
		r.NsPerOp = int64(tel.Query)
	}
	if first || int64(tel.Preprocess) < r.PreprocessNs {
		r.PreprocessNs = int64(tel.Preprocess)
	}
}

// key identifies a row for baseline matching (everything deterministic
// about the variant, nothing measured).
func (r Row) key() string {
	return fmt.Sprintf("%d|%s|%s|%t|%t", r.N, r.Corr, r.Algorithm, r.Coreset, r.NoSky)
}

// Load reads a Report from disk, rejecting unknown schema versions.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, want %d", path, rep.SchemaVersion, SchemaVersion)
	}
	return &rep, nil
}

// Write stores the report as indented JSON.
func (rep *Report) Write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Gate compares the run against a baseline: rows present in both must
// agree exactly on candidate counts (machine-independent determinism)
// and may not regress solver time by more than the gate fraction
// (benchstat-style, per row). Rows only one side has are ignored, so a
// reduced-scale CI run gates against a full-scale committed baseline.
//
// Solver times are compared at the run's host speed: each baseline time
// is first scaled by run.ProbeNs / base.ProbeNs, so a baseline recorded
// on a faster or quieter host does not fail an unchanged solver. With
// the timing gate on (gate > 0), a report without a probe is rejected.
// Returns the human-readable failures, empty when the gate passes.
func Gate(run, base *Report, gate float64) []string {
	hostScale := 1.0
	if gate > 0 {
		if base.ProbeNs <= 0 || run.ProbeNs <= 0 {
			return []string{"probe_ns missing: solver times cannot be compared across hosts; regenerate the baseline"}
		}
		hostScale = float64(run.ProbeNs) / float64(base.ProbeNs)
	}
	baseRows := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.key()] = r
	}
	var failures []string
	for _, r := range run.Rows {
		b, ok := baseRows[r.key()]
		if !ok {
			continue
		}
		if r.SkylineSize != b.SkylineSize || r.Candidates != b.Candidates {
			failures = append(failures, fmt.Sprintf(
				"%s: candidate counts diverged from baseline: skyline %d→%d, coreset %d→%d",
				r.key(), b.SkylineSize, r.SkylineSize, b.Candidates, r.Candidates))
		}
		if scaled := float64(b.NsPerOp) * hostScale; gate > 0 && b.NsPerOp > 0 && float64(r.NsPerOp) > scaled*(1+gate) {
			failures = append(failures, fmt.Sprintf(
				"%s: solver time regressed %.1f%% (baseline %v at this host's speed ×%.2f = %v, run %v, gate %.0f%%)",
				r.key(), 100*(float64(r.NsPerOp)/scaled-1),
				time.Duration(b.NsPerOp), hostScale, time.Duration(scaled), time.Duration(r.NsPerOp), 100*gate))
		}
	}
	return failures
}
