// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V and Appendix B). Each experiment is a registered
// Runner producing text tables with the same rows and series the paper
// plots; cmd/famexp renders them and the repository-root benchmarks wrap
// them in testing.B. Experiments accept three scales:
//
//   - ScaleBench: minimal sizes so `go test -bench=.` stays in CI budgets.
//   - ScaleSmall: the default; qualitative shapes match the paper within
//     minutes on a laptop.
//   - ScalePaper: the paper's dataset sizes and sample counts (long).
//
// See DESIGN.md §3 for the experiment-to-module index and EXPERIMENTS.md
// for recorded paper-vs-measured outcomes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/regretlab/fam/internal/baseline"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/dataset"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/internal/utility"
)

// Scale selects experiment sizes.
type Scale int

// Experiment scales.
const (
	ScaleBench Scale = iota
	ScaleSmall
	ScalePaper
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "bench":
		return ScaleBench, nil
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want bench|small|paper)", s)
	}
}

// Config parameterizes a run: (Scale, Seed) determines every table
// cell; Parallelism only how fast the run computes them.
type Config struct {
	Scale Scale
	Seed  uint64
	// Parallelism bounds the worker goroutines of every instance built by
	// the experiments (0 = all CPUs, 1 = serial). Results are identical
	// at any setting; only the timing columns change.
	Parallelism int
}

// Table is one rendered experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Runner is a registered experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(ctx context.Context, cfg Config) ([]*Table, error)
}

// registry holds all experiments in presentation order.
var registry []Runner

func register(r Runner) { registry = append(registry, r) }

// All returns the experiments in registration order.
func All() []Runner { return append([]Runner(nil), registry...) }

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns the registered experiment identifiers.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// prep is a shared experimental setup: one dataset, one sampled Θ, one
// preprocessed instance (on the skyline candidates for monotone Θ, per the
// paper's preprocessing step). All algorithms run against the same prep so
// their query times are comparable.
type prep struct {
	ds         *dataset.Dataset
	dist       utility.Distribution
	in         *core.Instance
	candidates []int // instance index -> dataset index
	restricted bool
	linear     bool // Θ samples plain linear functions (enables LP MRR)
	preprocess time.Duration
}

// newPrep builds the shared setup; cfg supplies the worker bound and the
// scheduling attributes for the instance.
func newPrep(ds *dataset.Dataset, dist utility.Distribution, n int, seed uint64, cfg Config) (*prep, error) {
	start := time.Now()
	candidates := make([]int, ds.N())
	for i := range candidates {
		candidates[i] = i
	}
	points := ds.Points
	restricted := false
	if dist.Monotone() && dist.Dim() != 0 {
		sky, err := skyline.Compute(ds.Points)
		if err != nil {
			return nil, err
		}
		if len(sky) < ds.N() {
			candidates = sky
			points = make([][]float64, len(sky))
			for i, c := range sky {
				points[i] = ds.Points[c]
			}
			restricted = true
		}
	}
	funcs, err := sampling.Sample(dist, n, rng.New(seed))
	if err != nil {
		return nil, err
	}
	in, err := core.NewInstance(points, funcs, core.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	return &prep{
		ds: ds, dist: dist, in: in, candidates: candidates,
		restricted: restricted, linear: utility.IsLinear(dist), preprocess: time.Since(start),
	}, nil
}

// Algorithm labels used across experiment tables (the paper's legend).
const (
	algoGS    = "Greedy-Shrink"
	algoLazy  = "Greedy-Shrink-Lazy"
	algoNaive = "Greedy-Shrink-Naive"
	algoMRR   = "MRR-Greedy"
	algoSD    = "Sky-Dom"
	algoKH    = "K-Hit"
	algoBF    = "Brute-Force"
	algoDP    = "DP"
)

// standardAlgos is the four-way comparison of Figures 2 and 4–7.
func standardAlgos() []string { return []string{algoGS, algoMRR, algoSD, algoKH} }

// algoRun is one algorithm execution on a prep.
type algoRun struct {
	Set     []int // dataset indices
	Query   time.Duration
	Metrics core.Metrics
}

// runAlgo executes the named algorithm at size k on the prep and evaluates
// the result on the prep's instance. SKY-DOM runs on the full dataset (its
// dominance objective needs the dominated points) and its metrics are
// evaluated on the skyline members of its selection — for monotone Θ the
// dominated members contribute nothing to any user's satisfaction.
func (p *prep) runAlgo(ctx context.Context, algo string, k int) (algoRun, error) {
	if k > len(p.candidates) {
		k = len(p.candidates)
	}
	if algo == algoSD {
		start := time.Now()
		dsSet, err := baseline.SkyDom(ctx, p.ds.Points, k, p.in.Parallelism(), p.in.Pool())
		if err != nil {
			return algoRun{}, fmt.Errorf("experiments: %s(k=%d): %w", algo, k, err)
		}
		query := time.Since(start)
		local := p.toInstance(dsSet)
		if len(local) == 0 {
			return algoRun{}, fmt.Errorf("experiments: %s(k=%d): no skyline member selected", algo, k)
		}
		m, err := p.in.Evaluate(local, nil)
		if err != nil {
			return algoRun{}, err
		}
		return algoRun{Set: dsSet, Query: query, Metrics: m}, nil
	}

	start := time.Now()
	var local []int
	var err error
	switch algo {
	case algoGS:
		local, _, err = core.GreedyShrink(ctx, p.in, k, core.StrategyDelta)
	case algoLazy:
		local, _, err = core.GreedyShrink(ctx, p.in, k, core.StrategyLazy)
	case algoNaive:
		local, _, err = core.GreedyShrink(ctx, p.in, k, core.StrategyNaive)
	case algoMRR:
		if p.linear {
			local, err = baseline.MRRGreedyLP(ctx, instancePoints(p), k, p.in.Parallelism(), p.in.Pool())
		} else {
			local, err = baseline.MRRGreedySampled(ctx, p.in, k)
		}
	case algoKH:
		local, err = baseline.KHit(ctx, p.in, k)
	case algoBF:
		local, _, err = core.BruteForce(ctx, p.in, k)
	default:
		return algoRun{}, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
	if err != nil {
		return algoRun{}, fmt.Errorf("experiments: %s(k=%d): %w", algo, k, err)
	}
	query := time.Since(start)
	m, err := p.in.Evaluate(local, nil)
	if err != nil {
		return algoRun{}, err
	}
	set := make([]int, len(local))
	for i, l := range local {
		set[i] = p.candidates[l]
	}
	sort.Ints(set)
	return algoRun{Set: set, Query: query, Metrics: m}, nil
}

// toInstance maps dataset indices to instance indices, dropping points
// outside the candidate set.
func (p *prep) toInstance(dsSet []int) []int {
	pos := make(map[int]int, len(p.candidates))
	for i, c := range p.candidates {
		pos[c] = i
	}
	var local []int
	for _, s := range dsSet {
		if l, ok := pos[s]; ok {
			local = append(local, l)
		}
	}
	return local
}

// timeNow/timeSince aliases keep experiment files free of direct time
// imports.
var (
	timeNow   = time.Now
	timeSince = time.Since
)

// instancePoints returns the candidate point slice of the prep.
func instancePoints(p *prep) [][]float64 {
	if !p.restricted {
		return p.ds.Points
	}
	pts := make([][]float64, len(p.candidates))
	for i, c := range p.candidates {
		pts[i] = p.ds.Points[c]
	}
	return pts
}

// sweep runs every algorithm at every k and returns results keyed by
// algorithm then k.
func (p *prep) sweep(ctx context.Context, algos []string, ks []int) (map[string]map[int]algoRun, error) {
	out := make(map[string]map[int]algoRun, len(algos))
	for _, a := range algos {
		out[a] = make(map[int]algoRun, len(ks))
		for _, k := range ks {
			r, err := p.runAlgo(ctx, a, k)
			if err != nil {
				return nil, err
			}
			out[a][k] = r
		}
	}
	return out, nil
}

// Formatting helpers shared by the experiment tables.

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func secs(d time.Duration) string {
	return fmt.Sprintf("%.4g", d.Seconds())
}
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// seriesTable builds a "k vs algorithms" table from sweep results using
// the given cell extractor.
func seriesTable(id, title, xName string, xs []int, algos []string,
	res map[string]map[int]algoRun, cell func(algoRun) string) *Table {
	t := &Table{ID: id, Title: title, Header: append([]string{xName}, algos...)}
	for _, x := range xs {
		row := []string{itoa(x)}
		for _, a := range algos {
			row = append(row, cell(res[a][x]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// errCanceled wraps context errors uniformly.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// ErrUnknownExperiment is returned by Run for unregistered IDs.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// Run executes one experiment by ID.
func Run(ctx context.Context, id string, cfg Config) ([]*Table, error) {
	r, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownExperiment, id, strings.Join(IDs(), ", "))
	}
	return r.Run(ctx, cfg)
}
