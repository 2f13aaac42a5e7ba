package fam_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPISurface = flag.Bool("update-api-surface", false,
	"rewrite testdata/api_surface.golden from the current source")

// TestAPISurface pins the exported API of the fam and serve packages
// against a golden file, so a PR cannot silently change a public
// signature, remove an export, or leak an unintended one. It is
// the offline equivalent of an apidiff/`go doc` diff: every exported
// type (with its exported fields), function, method, const, and var is
// rendered from the AST and compared textually.
//
// After an intentional API change, regenerate with:
//
//	go test -run TestAPISurface -update-api-surface .
func TestAPISurface(t *testing.T) {
	var sb strings.Builder
	for _, pkg := range []struct{ label, dir string }{
		{"package fam", "."},
		{"package serve", "serve"},
	} {
		fmt.Fprintf(&sb, "# %s\n", pkg.label)
		for _, line := range exportedSurface(t, pkg.dir) {
			sb.WriteString(line)
			sb.WriteString("\n")
		}
		sb.WriteString("\n")
	}
	got := sb.String()

	golden := filepath.Join("testdata", "api_surface.golden")
	if *updateAPISurface {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-api-surface to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	gotSet, wantSet := map[string]bool{}, map[string]bool{}
	for _, l := range gotLines {
		gotSet[l] = true
	}
	for _, l := range wantLines {
		wantSet[l] = true
	}
	var added, removed []string
	for _, l := range gotLines {
		if !wantSet[l] {
			added = append(added, l)
		}
	}
	for _, l := range wantLines {
		if !gotSet[l] {
			removed = append(removed, l)
		}
	}
	t.Fatalf("exported API surface changed.\n\nadded/changed:\n  %s\n\nremoved/changed:\n  %s\n\n"+
		"If the change is intentional, regenerate the golden:\n"+
		"\tgo test -run TestAPISurface -update-api-surface .",
		strings.Join(added, "\n  "), strings.Join(removed, "\n  "))
}

// exportedSurface renders every exported declaration of the package in
// dir as one sorted slice of normalized declaration strings.
func exportedSurface(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, pkg := range pkgs {
		var files []string
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, name := range files {
			for _, decl := range pkg.Files[name].Decls {
				lines = append(lines, renderDecl(t, fset, decl)...)
			}
		}
	}
	sort.Strings(lines)
	return lines
}

func renderDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d.Recv) {
			return nil
		}
		cp := *d
		cp.Doc, cp.Body = nil, nil
		return []string{render(t, fset, &cp)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				cp := *s
				cp.Doc, cp.Comment = nil, nil
				cp.Type = stripUnexported(cp.Type)
				out = append(out, "type "+render(t, fset, &cp))
			case *ast.ValueSpec:
				kw := "var"
				if d.Tok == token.CONST {
					kw = "const"
				}
				typ := ""
				if s.Type != nil {
					typ = " " + render(t, fset, s.Type)
				}
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, kw+" "+n.Name+typ)
					}
				}
			}
		}
		return out
	default:
		return nil
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (true for plain functions).
func exportedReceiver(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ident, ok := typ.(*ast.Ident); ok {
		return ident.IsExported()
	}
	return true
}

// stripUnexported removes unexported fields (and all field docs) from
// struct types, so internal plumbing like Exec's pool pointer does not
// churn the golden.
func stripUnexported(expr ast.Expr) ast.Expr {
	st, ok := expr.(*ast.StructType)
	if !ok || st.Fields == nil {
		return expr
	}
	kept := &ast.FieldList{Opening: st.Fields.Opening, Closing: st.Fields.Closing}
	for _, f := range st.Fields.List {
		cp := *f
		cp.Doc, cp.Comment = nil, nil
		if len(f.Names) == 0 {
			kept.List = append(kept.List, &cp) // embedded field
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			continue
		}
		cp.Names = names
		kept.List = append(kept.List, &cp)
	}
	out := *st
	out.Fields = kept
	return &out
}

func render(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, node); err != nil {
		t.Fatal(err)
	}
	// Normalize whitespace so gofmt churn cannot fail the check.
	fields := strings.Fields(buf.String())
	return strings.Join(fields, " ")
}
