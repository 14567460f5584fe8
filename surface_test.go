package dynacut

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// nonTest filters a package directory down to its non-test sources.
func nonTest(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// checkGolden compares a sorted name list with testdata/<file>, one
// name a line, rewriting the file first under -update.
func checkGolden(t *testing.T, file string, names []string) {
	t.Helper()
	got := strings.Join(names, "\n") + "\n"
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", file, got, want)
	}
}

// publicSurface lists the package's exported package-level names and
// the exported methods of its own types ("Session.Request"), sorted.
// It reads the non-test sources, so a new file cannot add names
// unnoticed.
func publicSurface(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nonTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["dynacut"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					names = append(names, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestPublicSurface pins the package's exported names to
// testdata/public_api.golden so the surface grows or shrinks only on
// purpose (run with -update after an intentional change), and checks
// that every dynacut.X the docs cite is still exported.
func TestPublicSurface(t *testing.T) {
	names := publicSurface(t)
	checkGolden(t, "public_api.golden", names)

	exported := map[string]bool{}
	for _, n := range names {
		exported[n] = true
	}
	cite := regexp.MustCompile(`\bdynacut\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(text), -1) {
			if !exported[m[1]] {
				t.Errorf("%s cites dynacut.%s, which the package does not export", doc, m[1])
			}
		}
	}
}

// configStructs are the settings structs callers fill in, one per
// layer that takes settings.
var configStructs = []struct{ dir, pkg, typ string }{
	{"internal/core", "core", "Options"},
	{"internal/fleet", "fleet", "Config"},
	{"internal/slo", "slo", "Config"},
	{"internal/supervise", "supervise", "Config"},
}

// configFields lists the exported fields of every configStructs entry
// as "pkg.Type.Field", sorted, read from the non-test sources.
func configFields(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, cs := range configStructs {
		pkgs, err := parser.ParseDir(token.NewFileSet(), cs.dir, nonTest, 0)
		if err != nil {
			t.Fatal(err)
		}
		var st *ast.StructType
		for _, f := range pkgs[cs.pkg].Files {
			if obj := f.Scope.Lookup(cs.typ); obj != nil {
				if ts, ok := obj.Decl.(*ast.TypeSpec); ok {
					st, _ = ts.Type.(*ast.StructType)
				}
			}
		}
		if st == nil {
			t.Fatalf("%s: no struct type %s", cs.dir, cs.typ)
		}
		for _, fld := range st.Fields.List {
			for _, n := range fld.Names {
				if n.IsExported() {
					names = append(names, cs.pkg+"."+cs.typ+"."+n.Name)
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestConfigFields pins the settings surface — every exported field of
// core.Options, fleet.Config, slo.Config and supervise.Config — to
// testdata/config_fields.golden, so a knob is added or removed only on
// purpose (run with -update after an intentional change).
func TestConfigFields(t *testing.T) {
	checkGolden(t, "config_fields.golden", configFields(t))
}
