// Package census checks that internal/ exports only what other packages
// use. It type-checks every package of the repository once (the root
// facade, internal/, cmd/, examples/ and the benchmark module) against
// the standard library's export data, then lists
//
//   - every exported function and method of an exported type in internal/
//     that no non-test file of another package references, and
//   - every exported field of an internal struct that another package's
//     non-test code builds with a non-empty composite literal, where no
//     non-test file of another package names the field.
//
// A method that implements an interface (one declared in the repository or
// in a standard package it imports, or an interface literal) counts as
// used: it can be called without being named.
//
// The list is compared with testdata/unused.txt, which may only shrink: a
// name missing from the file fails the test, and a name in the file that
// is now used or gone is only logged. Only the standard library is used.
package census

import (
	"bufio"
	"errors"
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
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "streamha"

// pkg is one type-checked package of the repository.
type pkg struct {
	path    string
	files   []*ast.File
	imports []string
	types   *types.Package
	info    *types.Info
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module "+module+"\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// load parses the non-test files of every package under root that match
// the current platform, and type-checks them in dependency order.
func load(t *testing.T, root string) map[string]*pkg {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{}
	stdPaths := map[string]bool{}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &pkg{path: module}
		if rel != "." {
			p.path = module + "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, imp := range bp.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				p.imports = append(p.imports, imp)
			} else {
				stdPaths[imp] = true
			}
		}
		pkgs[p.path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	std := stdImporter(t, root, fset, sortedKeys(stdPaths))
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			if p.types == nil {
				return nil, fmt.Errorf("%s imported before it was checked", path)
			}
			return p.types, nil
		}
		return std.Import(path)
	})
	// Go imports form no cycles, so checking a package's imports first
	// reaches every package after all of its dependencies.
	var check func(p *pkg)
	check = func(p *pkg) {
		if p.types != nil {
			return
		}
		for _, dep := range p.imports {
			if q, ok := pkgs[dep]; ok {
				check(q)
			}
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		p.types = tp
	}
	for _, path := range sortedKeys(pkgs) {
		check(pkgs[path])
	}
	return pkgs
}

// stdImporter imports the standard packages from the compiler's export
// data, which one "go list -export" run locates (and builds if needed)
// for every path at once.
func stdImporter(t *testing.T, root string, fset *token.FileSet, paths []string) types.Importer {
	t.Helper()
	args := append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// interfaces returns every interface a method might satisfy, indexed by
// method name: the named interfaces of the repository's packages and of
// every standard package they reach, and the interface literals the
// repository's code mentions.
func interfaces(pkgs map[string]*pkg) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
		for _, dep := range tp.Imports() {
			walk(dep)
		}
	}
	for _, path := range sortedKeys(pkgs) {
		p := pkgs[path]
		walk(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				add(it)
			}
		}
	}
	return byName
}

// implementsSome reports whether recv or a pointer to it implements an
// interface that has a method called name.
func implementsSome(recv types.Type, name string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(recv)
	for _, it := range ifaces[name] {
		if types.Implements(recv, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// label names a function, method or field the way the golden file does:
// "core.NewLifecycle" for a function, "core.Lifecycle.Stop" for a method or
// field of type Lifecycle.
func label(owner, name string, tp *types.Package) string {
	prefix := strings.TrimPrefix(tp.Path(), module+"/internal/")
	if owner != "" {
		return prefix + "." + owner + "." + name
	}
	return prefix + "." + name
}

// census computes the sorted list of unused exported names.
func census(pkgs map[string]*pkg) []string {
	// used holds every object some package other than its own names in
	// non-test code; built holds every struct type another package's
	// non-test code builds with a composite literal.
	used := map[types.Object]bool{}
	built := map[*types.TypeName]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.types {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				used[o.Origin()] = true
			case *types.Var:
				used[o.Origin()] = true
			}
		}
		for expr, tv := range p.info.Types {
			if lit, ok := expr.(*ast.CompositeLit); !ok || len(lit.Elts) == 0 {
				continue
			}
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != p.types {
				built[named.Origin().Obj()] = true
			}
		}
	}

	ifaces := interfaces(pkgs)
	var out []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, module+"/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.types.Scope().Lookup(fd.Name.Name)
				owner := ""
				if fd.Recv != nil {
					recv := p.info.Types[fd.Recv.List[0].Type].Type
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					named, ok := recv.(*types.Named)
					if !ok || !named.Obj().Exported() {
						continue
					}
					named = named.Origin()
					owner = named.Obj().Name()
					fn = methodOf(named, fd.Name.Name)
					if implementsSome(named, fd.Name.Name, ifaces) {
						continue
					}
				}
				if fn == nil || !used[fn] {
					out = append(out, label(owner, fd.Name.Name, p.types))
				}
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !built[tn] {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if fld.Exported() && !fld.Embedded() && !used[fld] {
					out = append(out, label(tn.Name(), fld.Name(), p.types))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func methodOf(named *types.Named, name string) types.Object {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

func readGolden(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			golden[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestExportedSurface fails when internal/ exports a function, method or
// config field that no other package's non-test code uses and that
// testdata/unused.txt does not already list. Use it from another
// package, unexport it, or delete it; a name only an external test
// package needs goes behind an export_test.go seam.
func TestExportedSurface(t *testing.T) {
	pkgs := load(t, repoRoot(t))
	got := census(pkgs)
	golden := readGolden(t, filepath.Join("testdata", "unused.txt"))
	var added []string
	listed := map[string]bool{}
	for _, name := range got {
		listed[name] = true
		if !golden[name] {
			added = append(added, name)
		}
	}
	for _, name := range sortedKeys(golden) {
		if !listed[name] {
			t.Logf("%s is used or gone now; drop it from testdata/unused.txt", name)
		}
	}
	t.Logf("%d exported names in internal/ unused outside their package; %d on the golden list", len(got), len(golden))
	if len(added) > 0 {
		t.Errorf("exported names no other package's non-test code uses:\n\t%s\nuse each from another package, unexport it or delete it",
			strings.Join(added, "\n\t"))
	}
}
