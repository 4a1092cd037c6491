// API freeze: the exported surface of package querycentric is pinned in
// API.txt. Any change to the public API fails this test until API.txt is
// regenerated (and the change therefore shows up in review):
//
//	go test -run TestAPIFrozen -update-api
package querycentric_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite API.txt with the current exported surface")

// apiSurface type-checks package querycentric from its compiled export
// data and renders one sorted line per exported object (plus the exported
// method sets of the named types the root package exposes).
func apiSurface(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-export", "-f", "{{.ImportPath}}={{.Export}}", ".").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list -export: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, ok := strings.Cut(line, "=")
		if ok && file != "" {
			exports[path] = file
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := imp.Import("querycentric")
	if err != nil {
		t.Fatalf("importing querycentric: %v", err)
	}

	qual := types.RelativeTo(pkg)
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		lines = append(lines, types.ObjectString(obj, qual))
		// Pin the exported method set reachable through each type name,
		// so renaming a method on an internal type re-exported via an
		// alias still changes the frozen surface.
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue // methods already printed in the interface type
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if !m.Exported() {
				continue
			}
			sig := types.TypeString(m.Type(), qual)
			lines = append(lines, fmt.Sprintf("method (%s) %s%s", name, m.Name(), strings.TrimPrefix(sig, "func")))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func TestAPIFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("API freeze shells out to go list; skipped in -short mode")
	}
	got := apiSurface(t)
	if *updateAPI {
		if err := os.WriteFile("API.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("API.txt updated (%d lines)", strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile("API.txt")
	if err != nil {
		t.Fatalf("reading API.txt (regenerate with -update-api): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotSet := map[string]bool{}
	for _, l := range gotLines {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range wantLines {
		wantSet[l] = true
	}
	for _, l := range wantLines {
		if !gotSet[l] {
			t.Errorf("removed from API: %s", l)
		}
	}
	for _, l := range gotLines {
		if !wantSet[l] {
			t.Errorf("added to API: %s", l)
		}
	}
	t.Error("public API changed; review the diff and regenerate with: go test -run TestAPIFrozen -update-api")
}

// TestFacadeNamesHaveCallers keeps the frozen surface down to what its
// callers use. A top-level name stays only if the commands, the benchmark
// or an Example name it as qc.X (an Example function's name counts as
// naming its subject), if it is a type named in the signature or declared
// fields of a kept name, or if it is a constant of a kept type. Anything
// else is plumbing the internal packages already provide.
func TestFacadeNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("API freeze shells out to go list; skipped in -short mode")
	}
	// One entry per top-level line of the surface: its kind and the text
	// after its name (signature, alias target, fields or constant type).
	type decl struct{ kind, rest string }
	decls := map[string]decl{}
	for _, line := range strings.Split(strings.TrimSpace(apiSurface(t)), "\n") {
		kind, rest, _ := strings.Cut(line, " ")
		if kind == "method" {
			continue
		}
		name := identRE.FindString(rest)
		decls[name] = decl{kind, strings.TrimPrefix(rest, name)}
	}

	kept := map[string]bool{}
	for name := range facadeCallers(t) {
		if _, ok := decls[name]; ok {
			kept[name] = true
		}
	}
	for grew := true; grew; {
		grew = false
		// Every identifier a kept line names, and every spelling of a kept
		// type: its facade name and, for an alias, the type it stands for.
		named, keptTypes := map[string]bool{}, map[string]bool{}
		for name := range kept {
			d := decls[name]
			for _, id := range identRE.FindAllString(d.rest, -1) {
				named[id] = true
			}
			if d.kind == "type" {
				keptTypes[name] = true
				if target, ok := strings.CutPrefix(d.rest, " = "); ok {
					keptTypes[target] = true
				}
			}
		}
		for name, d := range decls {
			if kept[name] {
				continue
			}
			target, _ := strings.CutPrefix(d.rest, " = ")
			keep := false
			switch d.kind {
			case "type":
				keep = named[name] || named[target]
			case "const":
				keep = keptTypes[strings.TrimSpace(d.rest)]
			}
			if keep {
				kept[name], grew = true, true
			}
		}
	}

	var orphans []string
	for name := range decls {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("facade name %s has no caller: no command, benchmark or Example names it, and no kept name's signature needs it", name)
	}
}

// identRE matches a Go identifier, package-qualified by import path when
// the surface renders an internal type.
var identRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_./]*`)

// facadeCallers returns the names X that cmd/, benchmarks/ and
// example_test.go select as qc.X from package querycentric, plus the
// subjects of the Example functions (ExampleT_M names T).
func facadeCallers(t *testing.T) map[string]bool {
	t.Helper()
	files := []string{"example_test.go"}
	for _, root := range []string{"cmd", "benchmarks"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "querycentric" {
				local = "querycentric"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && local != "" && x.Name == local {
					names[n.Sel.Name] = true
				}
			case *ast.FuncDecl:
				if subject, ok := strings.CutPrefix(n.Name.Name, "Example"); ok && path == "example_test.go" {
					subject, _, _ = strings.Cut(subject, "_")
					names[subject] = true
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatal("found no callers of the facade")
	}
	return names
}
