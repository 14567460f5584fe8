package dynacut

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/dynacut/dynacut"

// benchDir is the benchmark module: a program of its own, outside
// ./..., whose calls into this module count as program calls.
const benchDir = "benchmark"

// moduleChecker type-checks the non-test sources of this module and of
// the benchmark module, package by package, importing its own packages
// from source and the standard library from export data.
type moduleChecker struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

// Import resolves a module path by checking its directory; anything
// else comes from the standard library.
func (c *moduleChecker) Import(p string) (*types.Package, error) {
	if pkg, ok := c.pkgs[p]; ok {
		return pkg, nil
	}
	dir, ok := c.dirs[p]
	if !ok {
		return c.std.Import(p)
	}
	var files []*ast.File
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(p, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[p], c.files[p] = pkg, files
	return pkg, nil
}

// checkModule type-checks every package of the module (walking from
// the repository root) and the benchmark module.
func checkModule(t *testing.T) *moduleChecker {
	t.Helper()
	c := &moduleChecker{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !hasProgramFiles(p) {
			return nil
		}
		if p == "." {
			c.dirs[modulePath] = p
		} else {
			c.dirs[path.Join(modulePath, filepath.ToSlash(p))] = p
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}
	return c
}

// hasProgramFiles reports whether dir holds a non-test Go file (not a
// directory of subpackages or of test files only).
func hasProgramFiles(dir string) bool {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// funcName names fn as its package's directory (the root package as
// "dynacut"), its receiver's type if any, and its own name.
func funcName(fn *types.Func) string {
	pkg := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/")
	if pkg == modulePath {
		pkg = "dynacut"
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// testOnlyFuncs lists, sorted, every function and method declared in
// the module's non-test sources that no non-test source uses: not the
// module's own packages, cmd/, examples/ or the benchmark module. A
// use inside the function's own body does not count. A method counts
// as used when its type implements an interface, declared here or
// named by the program, that carries the method and is called
// through: the call then names the interface's method, not this one.
func testOnlyFuncs(t *testing.T) []string {
	c := checkModule(t)
	used := map[*types.Func]bool{}
	var decls []*types.Func
	for p, files := range c.files {
		for _, f := range files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self, _ = c.info.Defs[fd.Name].(*types.Func)
					if self != nil && !strings.HasPrefix(p, modulePath+"/"+benchDir) &&
						fd.Name.Name != "main" && fd.Name.Name != "init" && fd.Name.Name != "_" {
						decls = append(decls, self)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := c.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	// Interfaces a call may go through: those whose methods the program
	// calls, plus the standard library's that it hands values to.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(it *types.Interface) {
		if !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, obj := range c.info.Uses {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			addIface(it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, std := range []struct{ pkg, name string }{{"fmt", "Stringer"}, {"sort", "Interface"}, {"container/heap", "Interface"}} {
		pkg, err := c.std.Import(std.pkg)
		if err != nil {
			t.Fatal(err)
		}
		addIface(pkg.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	viaIface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if m.Name() != fn.Name() {
					continue
				}
				if m.Pkg() != nil && strings.HasPrefix(m.Pkg().Path(), modulePath) && !used[m] {
					continue
				}
				if types.Implements(recv.Type(), it) {
					return true
				}
			}
		}
		return false
	}

	var names []string
	for _, fn := range decls {
		if !used[fn] && !viaIface(fn) {
			names = append(names, funcName(fn))
		}
	}
	sort.Strings(names)
	return names
}

// TestNoTestOnlyFuncs fails on any function or method that only tests
// call, unless testdata/test_only_funcs.golden lists it with a reason
// ("name: reason", one a line). Code no program path runs is deleted,
// not kept for its tests. Run with -update after a deletion: the file
// keeps the reasons of the names still found, and a new name is
// written without one, which fails until a reason is added.
func TestNoTestOnlyFuncs(t *testing.T) {
	reasons := map[string]string{}
	if text, err := os.ReadFile(filepath.Join("testdata", "test_only_funcs.golden")); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
			name, reason, _ := strings.Cut(line, ": ")
			reasons[name] = reason
		}
	}
	var lines []string
	for _, name := range testOnlyFuncs(t) {
		if reasons[name] == "" {
			t.Errorf("%s: only tests call it; delete it, or give it a reason in testdata/test_only_funcs.golden", name)
			lines = append(lines, name)
			continue
		}
		lines = append(lines, name+": "+reasons[name])
	}
	checkGolden(t, "test_only_funcs.golden", lines)
}
