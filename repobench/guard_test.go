package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// unstable are package-level names the ROADMAP plans to fold or delete;
// a name ending in "*" matches every name with that prefix. The
// benchmark must not call them, so the changes that remove them never
// have to edit it.
var unstable = map[string][]string{
	"repro/internal/core":      {"WithSample"},
	"repro/internal/sm":        {"RunSampled", "SampleSpec"},
	"repro/internal/memsys":    {"Fast*"},
	"repro/internal/dispatch":  {"New", "NewMulti"},
	"repro/internal/occupancy": {"Compute", "ComputeShared"},
	"repro/internal/config":    {"Allocate*", "ChooseFermi*"},
}

// unstableMethods are methods in the same position: sampled runs and the
// multi-stream twins of the probe hooks.
var unstableMethods = []string{"RunSampled", "IssueStream", "StallStream"}

// unstablePackages are packages the ROADMAP plans to delete.
var unstablePackages = []string{"repro/internal/floorplan", "repro/internal/autotune"}

func matches(pattern, name string) bool {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return pattern == name
}

// unstableUses returns every use of an unstable name in one source file.
func unstableUses(fset *token.FileSet, f *ast.File) []string {
	var out []string
	local := make(map[string]string) // import name -> path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		for _, p := range unstablePackages {
			if path == p {
				out = append(out, fset.Position(imp.Pos()).String()+": imports "+path)
			}
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		where := fset.Position(sel.Pos()).String()
		if id, ok := sel.X.(*ast.Ident); ok {
			for _, pattern := range unstable[local[id.Name]] {
				if matches(pattern, sel.Sel.Name) {
					out = append(out, where+": uses "+local[id.Name]+"."+sel.Sel.Name)
				}
			}
		}
		for _, m := range unstableMethods {
			if sel.Sel.Name == m {
				out = append(out, where+": calls ."+m)
			}
		}
		return true
	})
	return out
}

// TestStableAPIOnly scans the benchmark's sources for the names above.
func TestStableAPIOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, use := range unstableUses(fset, f) {
			t.Error(use)
		}
	}
}

// TestStableAPIGuardCatches shows the scan finds each kind of use.
func TestStableAPIGuardCatches(t *testing.T) {
	src := `package p

import (
	"repro/internal/autotune"
	occ "repro/internal/occupancy"
	"repro/internal/config"
)

func f() {
	occ.Compute()
	config.AllocateMulti()
	p.StallStream()
	_ = autotune.X
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uses := unstableUses(fset, f); len(uses) != 4 {
		t.Errorf("found %d uses, want 4: %v", len(uses), uses)
	}
}
