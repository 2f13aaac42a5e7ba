// Command famexp regenerates the paper's tables and figures (and this
// repository's ablation studies) as text tables.
//
// Usage:
//
//	famexp -list
//	famexp -exp fig1
//	famexp -exp all -scale small
//	famexp -exp fig7 -scale paper      # paper-size sweep; slow
//
// The coreset/kernel performance sweep emits and gates BENCH_kernel.json:
//
//	famexp -kernel-bench -scale paper -out BENCH_kernel.json
//	famexp -kernel-bench -scale small -baseline BENCH_kernel.json -gate 0.15
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/regretlab/fam/internal/experiments"
	"github.com/regretlab/fam/internal/kernelbench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "famexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("famexp", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scale   = fs.String("scale", "small", "bench|small|paper")
		seed    = fs.Uint64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "worker goroutines per instance (0 = all CPUs, 1 = serial; tables are identical, timings change)")
		list    = fs.Bool("list", false, "list experiments and exit")
		kbench  = fs.Bool("kernel-bench", false, "run the coreset/kernel performance sweep instead of an experiment")
		kout    = fs.String("out", "", "kernel-bench: write the BENCH_kernel.json report here")
		kbase   = fs.String("baseline", "", "kernel-bench: gate the run against this committed BENCH_kernel.json")
		kgate   = fs.Float64("gate", 0.15, "kernel-bench: fail when solver ns/op regresses beyond this fraction of the baseline rescaled by the host-probe ratio (0 disables the timing gate; candidate counts are always gated exactly)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Description)
		}
		return nil
	}
	if *kbench {
		return runKernelBench(*scale, *seed, *kout, *kbase, *kgate)
	}
	if *exp == "" {
		return fmt.Errorf("-exp is required (or -list)")
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Scale: sc, Seed: *seed, Parallelism: *workers}
	ctx := context.Background()

	runners := experiments.All()
	if *exp != "all" {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q; try -list", *exp)
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		fmt.Printf("# %s — %s\n", r.ID, r.Description)
		start := time.Now()
		tables, err := r.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runKernelBench executes the coreset/kernel sweep: -scale bounds the
// dataset sizes (bench → 10⁴, small → 10⁵, paper → 10⁶), -out stores
// the report, and -baseline/-gate enforce the benchstat-style
// regression gate against a committed report.
func runKernelBench(scale string, seed uint64, out, baselinePath string, gate float64) error {
	maxN := map[string]int{"bench": 10_000, "small": 100_000, "paper": 1_000_000}[scale]
	if maxN == 0 {
		return fmt.Errorf("unknown scale %q for -kernel-bench (want bench|small|paper)", scale)
	}
	rep, err := kernelbench.Run(context.Background(), kernelbench.Config{MaxN: maxN, Seed: seed, Log: os.Stdout})
	if err != nil {
		return err
	}
	if out != "" {
		if err := rep.Write(out); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", out, len(rep.Rows))
	}
	if baselinePath != "" {
		base, err := kernelbench.Load(baselinePath)
		if err != nil {
			return err
		}
		if failures := kernelbench.Gate(rep, base, gate); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "kernel-bench gate:", f)
			}
			return fmt.Errorf("kernel-bench gate failed: %d regression(s) vs %s", len(failures), baselinePath)
		}
		fmt.Printf("kernel-bench gate passed vs %s\n", baselinePath)
	}
	return nil
}
