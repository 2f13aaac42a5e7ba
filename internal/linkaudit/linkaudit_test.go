//go:build linkaudit

// Package linkaudit reports production code that no binary links.
//
// It builds every binary of the repository (cmd/*, examples/* and the
// nested fambench module) with inlining off, reads their symbol tables
// with `go tool nm`, and lists each func or method declared in the root
// package, internal/... or serve/ that none of them contains. Entries on
// the allowlist below — exact references the tests compare against, and
// exported API no binary happens to call — are left out of the report.
//
// The audit is report-only and lives behind a build tag, so `go test
// ./...` never builds it:
//
//	go test -tags linkaudit -run LinkAudit -v ./internal/linkaudit
package linkaudit

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const module = "github.com/regretlab/fam"

// allowlist names the unlinked declarations the report leaves out, each
// with the reason it stays. Keys are "<import path>.<Func>" or
// "<import path>.<Type>.<Method>".
var allowlist = map[string]string{
	// Exported fam API that no binary calls, and what only it reaches.
	module + ".SampleSize":                         "fam API: Theorem 4 sample size",
	module + ".TableUsers":                         "fam API: explicit per-point utilities",
	module + "/internal/utility.NewDiscrete":       "reached through fam.TableUsers",
	module + "/internal/utility.Discrete.Sample":   "reached through fam.TableUsers",
	module + "/internal/utility.Discrete.Monotone": "reached through fam.TableUsers",
	module + "/internal/utility.Discrete.Dim":      "reached through fam.TableUsers",
	module + "/internal/utility.Discrete.Name":     "reached through fam.TableUsers",
	module + "/internal/utility.Table.Value":       "reached through fam.TableUsers",
	module + ".TraceIDFromContext":                 "fam API: trace ID of a traced context",
	module + "/internal/obs.CollectorFromContext":  "reached through fam.TraceIDFromContext",
	module + ".TraceSpan.Shape":                    "fam API: the span tree's shape, pinned by the trace-shape goldens",
	module + ".TraceSpan.node":                     "reached through fam.TraceSpan.Shape",
	module + ".sortedAttrKeys":                     "reached through fam.TraceSpan.Shape",
	module + "/internal/obs.Node.Shape":            "reached through fam.TraceSpan.Shape",
	module + "/internal/obs.Node.shape":            "reached through fam.TraceSpan.Shape",

	// Exact references and oracles the tests compare production code against.
	module + "/internal/geom.ExactMaxRegretRatio":   "exact 2-d maximum regret ratio",
	module + "/internal/geom.Mass":                  "exact 2-d favorite mass",
	module + "/internal/geom.FavoriteMasses":        "exact 2-d favorite masses",
	module + "/internal/geom.Envelope.BestAt":       "upper-envelope lookup the geom tests probe",
	module + "/internal/baseline.KHitExact2D":       "exact 2-d K-HIT reference",
	module + "/internal/baseline.MaxRegretRatioLP":  "exact LP maximum regret ratio",
	module + "/internal/baseline.DominanceCoverage": "exact SKY-DOM objective",
	module + "/internal/gmm.Model.LogDensity":       "mixture density the fit tests check",

	// Paper bounds kept for the error-bars and certificate work.
	module + "/internal/sampling.Eps":          "Theorem 4 error bound",
	module + "/internal/core.Steepness":        "Theorem 3 steepness",
	module + "/internal/core.min0":             "helper of core.Steepness",
	module + "/internal/core.ApproxRatioBound": "Theorem 3 approximation bound",

	// Accessors and hooks that tests use to inspect or drive internals.
	module + "/internal/core.Instance.Cached":          "instance test accessor",
	module + "/internal/core.Instance.DegenerateUsers": "instance test accessor",
	module + "/internal/core.Instance.Float32":         "instance test accessor",
	module + "/internal/core.Instance.SetParallelism":  "worker sweeps in the benchmarks",
	module + "/internal/core.Instance.TotalWeight":     "weighted-instance test accessor",
	module + "/internal/kernel.Matrix.Users":           "kernel test accessor",
	module + "/internal/kernel.Matrix.Points":          "kernel test accessor",
	module + "/internal/kernel.Matrix.Float32":         "kernel test accessor",
	module + "/internal/experiments.IDs":               "experiment registry test",
	module + "/internal/experiments.Run":               "experiment benchmarks",
}

func TestLinkAudit(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedSymbols(t, root)
	decls := declarations(t, root)

	var unlinked []decl
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if linked[d.key] {
			continue
		}
		if _, ok := allowlist[d.key]; ok {
			continue
		}
		unlinked = append(unlinked, d)
	}
	var stale []string
	for key := range allowlist {
		if !seen[key] || linked[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)

	lines := 0
	for _, d := range unlinked {
		lines += d.lines
		t.Logf("unlinked: %s (%s, %d lines)", d.key, d.pos, d.lines)
	}
	for _, key := range stale {
		t.Logf("stale allowlist entry (linked or no longer declared): %s", key)
	}
	t.Logf("%d of %d declarations linked into no binary (%d lines); %d allowlisted, %d stale allowlist entries",
		len(unlinked), len(decls), lines, len(allowlist)-len(stale), len(stale))
}

// linkedSymbols builds the binaries into a temporary directory and returns
// the normalized names of the module's symbols they contain.
func linkedSymbols(t *testing.T, root string) map[string]bool {
	t.Helper()
	bin := t.TempDir()
	run(t, root, "go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	run(t, filepath.Join(root, "fambench"), "go", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "fambench"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out := run(t, root, "go", "tool", "nm", filepath.Join(bin, e.Name()))
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || !strings.HasPrefix(f[2], module) {
				continue
			}
			linked[normalize(f[2])] = true
		}
	}
	t.Logf("read the symbol tables of %d binaries", len(entries))
	return linked
}

// normalize maps a linker symbol to the key of the declaration it came
// from: type arguments are dropped, a pointer receiver "(*T)" becomes
// "T", so both receivers of a value method meet one key, and an assembly
// function's ".abi0" suffix goes.
func normalize(sym string) string {
	sym = strings.TrimSuffix(sym, ".abi0")
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return b.String()
}

type decl struct {
	key   string
	pos   string
	lines int
}

// declarations lists the funcs and methods of the production packages:
// the root package, internal/... (this package aside) and serve/.
func declarations(t *testing.T, root string) []decl {
	t.Helper()
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." || rel == "serve" || rel == "internal" || strings.HasPrefix(rel, "internal/") {
				if d.Name() == "testdata" || rel == "internal/linkaudit" {
					return filepath.SkipDir
				}
				return nil
			}
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		for _, x := range f.Decls {
			fn, ok := x.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key = pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls = append(decls, decl{key: key, pos: rel + ":" + strconv.Itoa(start.Line), lines: end.Line - start.Line + 1})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	return decls
}

func receiverName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

func run(t *testing.T, dir string, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return out
}
