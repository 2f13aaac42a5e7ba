// Command famcli selects an average-regret-ratio minimizing set from a CSV
// dataset (or a built-in generated one) and prints the chosen rows with
// quality metrics.
//
// Usage:
//
//	famcli -data hotels.csv -k 5
//	famcli -gen nba -n 664 -k 5 -algo k-hit
//	famcli -gen synthetic -n 10000 -d 6 -corr anticorrelated -k 10 -eps 0.05
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	fam "github.com/regretlab/fam"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "famcli:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("famcli", flag.ContinueOnError)
	var (
		dataPath = fs.String("data", "", "CSV dataset path (header row; optional leading 'label' column)")
		gen      = fs.String("gen", "", "generate a dataset instead: synthetic|nba|nba22|household|forestcover|uscensus|hotels")
		n        = fs.Int("n", 1000, "generated dataset size")
		d        = fs.Int("d", 6, "generated synthetic dimensionality")
		corr     = fs.String("corr", "independent", "synthetic correlation: independent|correlated|anticorrelated")
		k        = fs.Int("k", 5, "number of points to select")
		algo     = fs.String("algo", "greedy-shrink", "algorithm: greedy-shrink|greedy-shrink-lazy|greedy-shrink-naive|greedy-add|dp|brute-force|mrr-greedy|sky-dom|k-hit")
		eps      = fs.Float64("eps", 0.1, "sampling error bound (Theorem 4)")
		sigma    = fs.Float64("sigma", 0.1, "sampling confidence parameter")
		samples  = fs.Int("N", 0, "override sample size directly (0 = derive from eps/sigma)")
		seed     = fs.Uint64("seed", 1, "random seed")
		ces      = fs.Float64("ces", 0, "use CES utilities with this rho (0 = linear)")
		workers  = fs.Int("workers", 0, "worker goroutines for preprocessing and query evaluation (0 = all CPUs, 1 = serial; results are identical at any setting)")
		coreset  = fs.Bool("coreset", false, "enable the ε-kernel coreset candidate prepass (solution quality within -coreset-eps of the unpruned run)")
		csEps    = fs.Float64("coreset-eps", 0, "coreset kernel tolerance in [0,1) (0 = library default; requires -coreset)")
		f32      = fs.Bool("float32", false, "store the utility matrix in float32 (half the memory, ~1e-7 relative metric drift)")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON instead of a table")
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := loadDataset(*dataPath, *gen, *n, *d, *corr, *seed)
	if err != nil {
		return err
	}
	var dist fam.Distribution
	if *ces != 0 {
		dist, err = fam.CESUniform(ds.Dim(), *ces)
	} else {
		dist, err = fam.UniformLinear(ds.Dim())
	}
	if err != nil {
		return err
	}
	algorithm, err := parseAlgo(*algo)
	if err != nil {
		return err
	}

	// The query names the problem; the exec carries the throughput knobs.
	// Results are identical at any -workers setting.
	res, tel, err := fam.Select(context.Background(), fam.Query{
		Data: ds, Dist: dist,
		K: *k, Algorithm: algorithm, Epsilon: *eps, Sigma: *sigma,
		SampleSize: *samples, Seed: *seed,
		Coreset: *coreset, CoresetEps: *csEps, Float32: *f32,
	}, fam.Exec{Parallelism: *workers})
	if err != nil {
		return err
	}

	if *jsonOut {
		return writeJSON(out, ds, algorithm, res, tel)
	}

	fmt.Fprintf(out, "dataset %s: selected %d of %d points with %s\n\n", ds.Name, *k, ds.N(), algorithm)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	header := "label"
	for _, a := range attrsOf(ds) {
		header += "\t" + a
	}
	fmt.Fprintln(w, header)
	for i, idx := range res.Indices {
		row := res.Labels[i]
		for _, v := range ds.Points[idx] {
			row += fmt.Sprintf("\t%.3f", v)
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()

	m := res.Metrics
	fmt.Fprintf(out, "\navg regret ratio  %.5f\n", m.ARR)
	if res.ExactARR >= 0 {
		fmt.Fprintf(out, "exact avg regret  %.5f\n", res.ExactARR)
	}
	fmt.Fprintf(out, "std dev           %.5f\n", m.StdDev)
	fmt.Fprintf(out, "rr percentiles    70%%=%.4f 80%%=%.4f 90%%=%.4f 95%%=%.4f 99%%=%.4f 100%%=%.4f\n",
		m.Percentiles[0], m.Percentiles[1], m.Percentiles[2], m.Percentiles[3], m.Percentiles[4], m.Percentiles[5])
	if res.CoresetSize >= 0 {
		fmt.Fprintf(out, "coreset           %d of %d candidates survive\n", res.CoresetSize, res.SkylineSize)
	}
	fmt.Fprintf(out, "preprocess        %v (skyline: %d candidates)\n", tel.Preprocess, res.SkylineSize)
	fmt.Fprintf(out, "query time        %v\n", tel.Query)
	return nil
}

// jsonResult is the machine-readable output schema of -json.
type jsonResult struct {
	Dataset         string    `json:"dataset"`
	Algorithm       string    `json:"algorithm"`
	Indices         []int     `json:"indices"`
	Labels          []string  `json:"labels"`
	ARR             float64   `json:"avg_regret_ratio"`
	ExactARR        *float64  `json:"exact_avg_regret_ratio,omitempty"`
	StdDev          float64   `json:"std_dev"`
	MaxRR           float64   `json:"max_regret_ratio"`
	Percentiles     []float64 `json:"regret_at_percentile"`
	PercentileLevel []float64 `json:"percentile_levels"`
	SkylineSize     int       `json:"skyline_size"`
	CoresetSize     *int      `json:"coreset_size,omitempty"`
	PreprocessSec   float64   `json:"preprocess_seconds"`
	QuerySec        float64   `json:"query_seconds"`
}

func writeJSON(out io.Writer, ds *fam.Dataset, algorithm fam.Algorithm, res *fam.Result, tel *fam.Telemetry) error {
	jr := jsonResult{
		Dataset:         ds.Name,
		Algorithm:       algorithm.String(),
		Indices:         res.Indices,
		Labels:          res.Labels,
		ARR:             res.Metrics.ARR,
		StdDev:          res.Metrics.StdDev,
		MaxRR:           res.Metrics.MaxRR,
		Percentiles:     res.Metrics.Percentiles,
		PercentileLevel: res.Metrics.PercentileLevel,
		SkylineSize:     res.SkylineSize,
		PreprocessSec:   tel.Preprocess.Seconds(),
		QuerySec:        tel.Query.Seconds(),
	}
	if res.ExactARR >= 0 {
		v := res.ExactARR
		jr.ExactARR = &v
	}
	if res.CoresetSize >= 0 {
		cs := res.CoresetSize
		jr.CoresetSize = &cs
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

func loadDataset(path, gen string, n, d int, corr string, seed uint64) (*fam.Dataset, error) {
	switch {
	case path != "" && gen != "":
		return nil, fmt.Errorf("use either -data or -gen, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fam.LoadCSV(f, path)
	case gen != "":
		switch strings.ToLower(gen) {
		case "synthetic":
			c, err := parseCorr(corr)
			if err != nil {
				return nil, err
			}
			return fam.Synthetic(n, d, c, seed)
		case "nba":
			return fam.SimulatedNBA(n, seed)
		case "nba22":
			return fam.SimulatedNBA22(n, seed)
		case "household":
			return fam.SimulatedHousehold(n, seed)
		case "forestcover":
			return fam.SimulatedForestCover(n, seed)
		case "uscensus":
			return fam.SimulatedUSCensus(n, seed)
		case "hotels":
			return fam.Hotels(n, seed)
		default:
			return nil, fmt.Errorf("unknown generator %q", gen)
		}
	default:
		return nil, fmt.Errorf("one of -data or -gen is required")
	}
}

func parseCorr(s string) (fam.Correlation, error) {
	switch strings.ToLower(s) {
	case "independent":
		return fam.Independent, nil
	case "correlated":
		return fam.Correlated, nil
	case "anticorrelated":
		return fam.Anticorrelated, nil
	case "spherical":
		return fam.Spherical, nil
	default:
		return 0, fmt.Errorf("unknown correlation %q", s)
	}
}

func parseAlgo(s string) (fam.Algorithm, error) {
	return fam.ParseAlgorithm(strings.ToLower(s))
}

func attrsOf(ds *fam.Dataset) []string {
	if ds.Attrs != nil {
		return ds.Attrs
	}
	out := make([]string, ds.Dim())
	for i := range out {
		out[i] = fmt.Sprintf("a%d", i)
	}
	return out
}
