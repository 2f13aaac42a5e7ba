package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/regretlab/fam/internal/par"
)

var update = flag.Bool("update", false, "rewrite testdata/repeat.golden from this run")

const goldenPath = "testdata/repeat.golden"

// TestRunsRepeat pins what must repeat exactly across two runs at one
// seed: the answer digest, the pipeline's work counters over the fixed
// request list, and the serving Engine's cache fill and eviction counts
// (every closed workload runs one client; the HTTP run's fills do not
// interact). Both runs must agree with each other and with the values in
// testdata/repeat.golden; go test -update rewrites that file after a change
// that is meant to alter answers or work. It also exercises every answer
// check and the traced replay.
func TestRunsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload twice")
	}
	golden := readGolden(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a, b := repeatable(t, name), repeatable(t, name)
			if a != b {
				t.Fatalf("two runs at one seed differ:\n%s\n%s", a, b)
			}
			got[name] = a
			// The golden values were recorded on amd64. The compiler fuses
			// multiply-adds on some other architectures, which changes
			// ARR bits, so there only the two runs are compared.
			if !*update && runtime.GOARCH == "amd64" && a != golden[name] {
				t.Errorf("run differs from %s:\n got %s\nwant %s", goldenPath, a, golden[name])
			}
		})
	}
	if *update {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readGolden returns the pinned value of each workload: one line each, the
// workload's name, a space, and what repeatable returns.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	b, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok {
			out[name] = v
		}
	}
	return out
}

// repeatable runs the workload's fixed request list (one second of
// requests for the HTTP mix), checks and replays it, and returns what must
// not change between runs.
func repeatable(t *testing.T, name string) string {
	t.Helper()
	ctx := context.Background()
	pool := par.NewPool(0)
	defer pool.Close()
	w := workloads[name]()
	defer w.close()
	if err := w.setup(ctx, 7, pool); err != nil {
		t.Fatal(err)
	}
	// A closed loop given no time sends exactly the fixed list; the HTTP
	// mix's list is as long as its run.
	d := time.Duration(0)
	if _, ok := w.(*httpWorkload); ok {
		d = time.Second
	}
	r, err := w.run(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(ctx, r); err != nil {
		t.Fatal(err)
	}
	replayed, err := w.replay(ctx, r, 0, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	var total counters
	fixed := make([]answer, r.prefix)
	for _, s := range replayed {
		if s.idx < r.prefix {
			total.add(s.cnt)
			fixed[s.idx] = s.ans
		}
	}
	b, a := r.before, r.after
	return fmt.Sprintf("digest %s counters %+v prep fills %d evictions %d result fills %d",
		digest(fixed), total, a.PrepCache.Misses-b.PrepCache.Misses, a.PrepCache.Evictions-b.PrepCache.Evictions,
		a.ResultCache.Misses-b.ResultCache.Misses)
}
