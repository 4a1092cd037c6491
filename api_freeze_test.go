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
	"go/build"
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

// TestInternalCodeIsReached keeps internal/ down to the code the binaries
// run. It builds the commands and the benchmark without inlining, so every
// function a binary calls keeps its own symbol, and fails on any function
// or method declared under internal/ that no binary holds, unless
// reachKeep names it with a reason.
func TestInternalCodeIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("reachability builds every binary; skipped in -short mode")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./benchmarks")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 2 {
		t.Fatalf("built %d binaries, want the commands and the benchmark", len(bins))
	}
	// Text symbols with their type arguments cut, so pkg.F[go.shape.int]
	// and pkg.(*T[go.shape.int]).M read as pkg.F and pkg.(*T).M.
	held := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				held[stripTypeArgs(f[2])] = true
			}
		}
	}

	declared := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "querycentric/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			// name is how reachKeep spells the function (pkg.F or
			// pkg.T.M); sym is its symbol (pkg.F, pkg.T.M or pkg.(*T).M).
			name := filepath.Base(pkg) + "." + fn.Name.Name
			sym := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv, ptr := fn.Recv.List[0].Type, false
				if s, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = s.X, true
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				typ := recv.(*ast.Ident).Name
				name = filepath.Base(pkg) + "." + typ + "." + fn.Name.Name
				sym = pkg + "." + typ + "." + fn.Name.Name
				if ptr {
					sym = pkg + ".(*" + typ + ")." + fn.Name.Name
				}
			}
			declared[name] = true
			switch _, keep := reachKeep[name]; {
			case !held[sym] && !keep:
				t.Errorf("%s (%s): no binary reaches it; delete it, or add it to reachKeep with a reason", name, fset.Position(fn.Pos()))
			case held[sym] && keep:
				t.Errorf("%s: a binary reaches it; drop its reachKeep entry", name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range reachKeep {
		if !declared[name] {
			t.Errorf("reachKeep names %s, which internal/ no longer declares", name)
		}
	}
}

// stripTypeArgs cuts every bracketed (possibly nested) type-argument list
// out of a symbol name.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// reachKeep names the internal functions no binary reaches that stay on
// purpose, keyed pkg.F or pkg.T.M, each with the reason it stays. An
// entry is one of three kinds: a slow, obviously-right reference a test
// compares a fast path against; code a ROADMAP item needs; or a test
// oracle for state no reached function exposes.
var reachKeep = map[string]string{
	"qrp.Table.MatchesQuery":    "slow reference for the hoisted QRP gate (qrp_test, gnet flood_naive_test)",
	"qrp.QueryHashes":           "slow reference for the dictionary's precomputed query slots (qrp_test)",
	"terms.Matches":             "slow reference for the posting-index probe (gnet index_test)",
	"terms.TokenSet":            "slow reference for the posting-index probe (gnet index_test)",
	"vpost.Encode":              "slow reference codec the cursor is checked against (vpost_test)",
	"vpost.AppendBody":          "slow reference codec the cursor is checked against (vpost_test)",
	"vpost.Decode":              "slow reference codec the cursor is checked against (vpost_test)",
	"vpost.Cursor.Err":          "test oracle: a cursor over damaged bytes fails typed (vpost_test, gnet holders_test)",
	"chord.Ring.AddNode":        "ROADMAP item 7: the DHT baselines under churn",
	"chord.Ring.RemoveNode":     "ROADMAP item 7: the DHT baselines under churn",
	"chord.Ring.hasID":          "ROADMAP item 7: AddNode's collision check",
	"adaptive.System.RewireLog": "ROADMAP item 10(c): the convergence oracle the decision log extends",
	"overlay.Graph.Ultra":       "test oracle: a vertex's ultrapeer role",
	"overlay.Graph.TwoTier":     "test oracle: whether a graph carries roles",
	"gnet.Network.Borrowed":     "test oracle: a snapshot-mapped network's zero-copy views",
	"capacity.Plane.Depth":      "test oracle: a peer's committed queue depth",
	"churn.Timeline.OnlineAt":   "test oracle: replayed liveness at an instant",
	"events.Engine.Pending":     "test oracle: events still queued",
}
