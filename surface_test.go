package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// surfaceAllowlist names the exported internal/ identifiers that only
// tests reach and that tests in another package need, with the reason.
// Keys are written as the gate prints them: pkg.Name, pkg.Type.Method.
var surfaceAllowlist = map[string]string{
	"core.Warm.Snapshot":           "the alloc gates check the warm prefix's pending-table size",
	"dispatch.Dispatcher.NumWarps": "sm's readiness test walks every warp slot",
	"dispatch.Idle":                "sm's readiness test tells unoccupied slots from live warps",
	"isa.WarpInst.SetAddrs":        "trace, banks, memsys and kgen tests build instructions from unpacked vectors",
	"kgen.Builder.Finish":          "flat traces for sm, chip, trace and workloads tests, until split code replaces them",
	"kgen.Conflicting":             "banks and sm tests build the N-way bank-conflict pattern",
	"probe.Decode":                 "harness tests pin NDJSON byte-identity by decoding the stream",
	"probe.Restore":                "simtest forks probed snapshots",
	"sm.SM.BarrierWarps":           "simtest places snapshots at mid-barrier points",
	"sm.SM.InFlightFills":          "simtest places snapshots at MSHR-full points",
}

// surfaceExempt are method names the standard library calls through its
// own interfaces (fmt, errors).
var surfaceExempt = map[string]bool{"String": true, "Error": true, "Is": true, "As": true, "Unwrap": true}

// srcPackage is one directory of Go source: its import path and files.
type srcPackage struct {
	path    string
	files   []*ast.File
	imports []string
}

// TestSurfaceReached is the north star's "no knob without a consumer" as
// a gate: every exported identifier declared in internal/ must have a use
// in non-test Go of the module, cmd/, examples/ or the benchmark module
// (repobench/). It type-checks each package once, from source, against
// the standard library's export data, and prints what it costs.
func TestSurfaceReached(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, ".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	imp, err := stdImporter(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := unreachedSurface(fset, pkgs, imp, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unreached {
		if _, ok := surfaceAllowlist[name]; !ok {
			t.Errorf("%s: exported, but no non-test code uses it (delete it, move it to export_test.go, or allowlist it with a reason)", name)
		}
	}
	flagged := make(map[string]bool, len(unreached))
	for _, name := range unreached {
		flagged[name] = true
	}
	for name := range surfaceAllowlist {
		if !flagged[name] {
			t.Errorf("%s: allowlisted, but it is gone or has a non-test use; drop it from the allowlist", name)
		}
	}
	t.Logf("type-checked %d packages in %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}

// TestSurfaceGateCatches feeds the gate a synthetic module with an
// exported func nothing calls, one only a test calls, and a method
// reached only through an interface: the first two are reported and
// the third is not.
func TestSurfaceGateCatches(t *testing.T) {
	srcs := map[string]map[string]string{
		"m/internal/p": {
			"p.go": `package p

func Dead() {}

func TestOnly() {}

type I interface{ M() }

type T struct{}

func (T) M() {}

func Use(i I) { i.M() }
`,
			"p_test.go": `package p

func f() { TestOnly() }
`,
		},
		"m/cmd/c": {
			"main.go": `package main

import "m/internal/p"

func main() { p.Use(p.T{}) }
`,
		},
	}
	fset := token.NewFileSet()
	var pkgs []*srcPackage
	for dir, files := range srcs {
		pkg := &srcPackage{path: dir}
		for name, src := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue // as build.ImportDir leaves them out of GoFiles
			}
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkg.files = append(pkg.files, f)
			pkg.imports = append(pkg.imports, fileImports(f)...)
		}
		pkgs = append(pkgs, pkg)
	}
	got, err := unreachedSurface(fset, pkgs, nil, "m/internal/")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p.Dead", "p.TestOnly"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reported %v, want %v", got, want)
	}
}

// loadModule parses the non-test sources of every package under root
// whose import path starts with module. A nested module directory (the
// benchmark's repobench/) keeps its relative path, which is also its
// module path.
func loadModule(fset *token.FileSet, root, module string) ([]*srcPackage, error) {
	var pkgs []*srcPackage
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") && name != "." || name == "testdata" {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		pkg := &srcPackage{path: path.Join(module, filepath.ToSlash(dir)), imports: bp.Imports}
		for _, name := range append(bp.GoFiles, bp.CgoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	return pkgs, err
}

func fileImports(f *ast.File) []string {
	var out []string
	for _, imp := range f.Imports {
		out = append(out, strings.Trim(imp.Path.Value, `"`))
	}
	return out
}

// stdImporter imports the standard library packages pkgs use from their
// compiled export data, located (and built if stale) by one go list.
func stdImporter(fset *token.FileSet, pkgs []*srcPackage) (types.Importer, error) {
	own := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		own[p.path] = true
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.imports {
			if !own[imp] && !seen[imp] {
				seen[imp] = true
				args = append(args, imp)
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "\t"); ok {
			export[p] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := export[p]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(file)
	}), nil
}

// moduleImporter resolves module packages to the ones already checked
// and everything else through std.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.checked[p]; ok {
		return pkg, nil
	}
	if m.std == nil {
		return nil, fmt.Errorf("package %s not found", p)
	}
	return m.std.Import(p)
}

// unreachedSurface type-checks pkgs in dependency order and returns,
// sorted, every exported identifier declared in a package under prefix
// that no checked source uses. Methods that satisfy an interface declared
// in pkgs, and the surfaceExempt names, count as reached.
func unreachedSurface(fset *token.FileSet, pkgs []*srcPackage, std types.Importer, prefix string) ([]string, error) {
	byPath := make(map[string]*srcPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	imp := moduleImporter{checked: map[string]*types.Package{}, std: std}
	used := map[types.Object]bool{}
	var order []*types.Package
	var check func(p *srcPackage) error
	check = func(p *srcPackage) error {
		if _, ok := imp.checked[p.path]; ok {
			return nil
		}
		for _, dep := range p.imports {
			if d, ok := byPath[dep]; ok {
				if err := check(d); err != nil {
					return err
				}
			}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return err
		}
		imp.checked[p.path] = tp
		order = append(order, tp)
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		return nil
	}
	for _, p := range pkgs {
		if err := check(p); err != nil {
			return nil, err
		}
	}

	var ifaces []*types.Interface
	for _, tp := range order {
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	implements := func(m *types.Func, recv types.Type) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, tp := range order {
		if !strings.HasPrefix(tp.Path(), prefix) {
			continue
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, tp.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() && !used[m] {
						out = append(out, tp.Name()+"."+name+"."+m.Name())
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || surfaceExempt[m.Name()] || implements(m, named) {
					continue
				}
				out = append(out, tp.Name()+"."+name+"."+m.Name())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
