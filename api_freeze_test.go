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
	"go/constant"
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
	fset := token.NewFileSet()
	pkg, err := exportImporter(fset, goList(t, ".")).Import("querycentric")
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

// listedPkg is one package as go list -deps -export reports it.
type listedPkg struct {
	Path, Export, Dir string
	Standard          bool
	GoFiles           []string
}

// goList lists pattern's packages and all their dependencies, in
// dependency order, with the export data the build left for each.
func goList(t *testing.T, pattern string) []listedPkg {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{.Standard}}\t{{join .GoFiles \" \"}}", pattern).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list -export: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list -export: %v", err)
	}
	var pkgs []listedPkg
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		f := strings.Split(line, "\t")
		pkgs = append(pkgs, listedPkg{Path: f[0], Export: f[1], Dir: f[2], Standard: f[3] == "true", GoFiles: strings.Fields(f[4])})
	}
	return pkgs
}

// exportImporter imports pkgs from their compiled export data.
func exportImporter(fset *token.FileSet, pkgs []listedPkg) types.Importer {
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.Path] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
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

// TestConfigKnobsHaveTwoValues keeps internal/'s configuration structs down
// to the knobs some caller turns. It type-checks the module's non-test code
// and fails on any exported field of a struct type named *Config under
// internal/ (less the types API.txt aliases) whose only value in use is the
// one its Default* constructor writes, unless knobKeep names it with a
// reason: such a field belongs in a named constant. A field passes if its
// Default* constructor fills it from a parameter, or if code outside the
// constructor writes it with another value: a keyed literal element, a
// literal that omits a field the constructor sets, an assignment, a write
// to one of its sub-fields, or taking its address.
func TestConfigKnobsHaveTwoValues(t *testing.T) {
	if testing.Short() {
		t.Skip("the knob gate type-checks the module; skipped in -short mode")
	}
	fset := token.NewFileSet()
	listed := goList(t, "./...")
	std := exportImporter(fset, listed)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	type source struct {
		files []*ast.File
		info  *types.Info
	}
	var srcs []source
	for _, p := range listed { // dependencies first
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.Path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.Path, err)
		}
		checked[p.Path] = pkg
		srcs = append(srcs, source{files, info})
	}

	api, err := os.ReadFile("API.txt")
	if err != nil {
		t.Fatal(err)
	}
	aliased := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^type \w+ = (querycentric/internal/\S+)$`).FindAllStringSubmatch(string(api), -1) {
		aliased[m[1]] = true
	}
	// The knobs in scope, keyed pkg.Type.Field as knobKeep spells them,
	// and the Default* constructors of their types.
	knobs := map[*types.Var]string{}
	owner := map[*types.Var]*types.Named{}
	ctors := map[*types.Func]*types.Named{}
	configs := 0
	for path, pkg := range checked {
		if !strings.HasPrefix(path, "querycentric/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				st, isStruct := obj.Type().Underlying().(*types.Struct)
				if !ok || !isStruct || !strings.HasSuffix(name, "Config") || aliased[path+"."+name] {
					continue
				}
				configs++
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						knobs[f] = filepath.Base(path) + "." + name + "." + f.Name()
						owner[f] = named
					}
				}
			case *types.Func:
				res := obj.Type().(*types.Signature).Results()
				if !strings.HasPrefix(name, "Default") || res.Len() == 0 {
					continue
				}
				if named, ok := res.At(0).Type().(*types.Named); ok {
					ctors[obj] = named
				}
			}
		}
	}

	// Every write to a field, with the top-level function it sits in.
	type knobWrite struct {
		fn *types.Func
		v  knobValue
	}
	writes := map[*types.Var][]knobWrite{}
	for _, src := range srcs {
		info := src.info
		for _, file := range src.files {
			for _, decl := range file.Decls {
				var fn *types.Func
				params := map[types.Object]bool{}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn, _ = info.Defs[fd.Name].(*types.Func)
					sig := fn.Type().(*types.Signature)
					for i := 0; i < sig.Params().Len(); i++ {
						params[sig.Params().At(i)] = true
					}
				}
				value := func(e ast.Expr) knobValue {
					tv := info.Types[e]
					if tv.Value != nil {
						return knobValue{c: tv.Value}
					}
					if lit, ok := e.(*ast.CompositeLit); tv.IsNil() || ok && len(lit.Elts) == 0 {
						return knobValue{zero: true}
					}
					var v knobValue
					ast.Inspect(e, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && params[info.Uses[id]] {
							v.param = true
						}
						return true
					})
					return v
				}
				record := func(f *types.Var, v knobValue) {
					if _, ok := knobs[f]; ok {
						writes[f] = append(writes[f], knobWrite{fn, v})
					}
				}
				// turn records a write through e: e's own field gets v, and
				// every field e reaches it through is modified.
				turn := func(e ast.Expr, v knobValue) {
					for {
						switch x := ast.Unparen(e).(type) {
						case *ast.IndexExpr:
							e, v = x.X, knobValue{}
						case *ast.StarExpr:
							e, v = x.X, knobValue{}
						case *ast.SelectorExpr:
							if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
								record(sel.Obj().(*types.Var), v)
							}
							e, v = x.X, knobValue{}
						default:
							return
						}
					}
				}
				compared := map[ast.Expr]bool{} // a literal compared against writes nothing
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.BinaryExpr:
						if n.Op == token.EQL || n.Op == token.NEQ {
							compared[ast.Unparen(n.X)], compared[ast.Unparen(n.Y)] = true, true
						}
					case *ast.CompositeLit:
						if compared[n] {
							return true
						}
						typ := info.Types[n].Type
						if p, ok := typ.Underlying().(*types.Pointer); ok {
							typ = p.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						seen := map[*types.Var]bool{}
						for i, elt := range n.Elts {
							f := st.Field(i)
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								f, elt = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
							}
							seen[f] = true
							record(f, value(elt))
						}
						for i := 0; i < st.NumFields(); i++ {
							if !seen[st.Field(i)] {
								record(st.Field(i), knobValue{zero: true})
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							v := knobValue{}
							if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
								v = value(n.Rhs[i])
							}
							turn(lhs, v)
						}
					case *ast.IncDecStmt:
						turn(n.X, knobValue{})
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							for _, e := range []ast.Expr{n.Key, n.Value} {
								if e != nil {
									turn(e, knobValue{})
								}
							}
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							turn(n.X, knobValue{})
						}
					}
					return true
				})
			}
		}
	}

	fields := make([]*types.Var, 0, len(knobs))
	names := map[string]bool{}
	for f, name := range knobs {
		fields = append(fields, f)
		names[name] = true
	}
	sort.Slice(fields, func(i, j int) bool { return knobs[fields[i]] < knobs[fields[j]] })
	for _, f := range fields {
		name := knobs[f]
		var defs, others []knobValue
		param := false
		for _, w := range writes[f] {
			if ctors[w.fn] == owner[f] {
				defs = append(defs, w.v)
				param = param || w.v.param
			} else {
				others = append(others, w.v)
			}
		}
		if len(defs) == 0 {
			defs = []knobValue{{zero: true}}
		}
		turned := false
		for _, o := range others {
			same := false
			for _, d := range defs {
				same = same || d.equal(o)
			}
			turned = turned || !same
		}
		switch _, keep := knobKeep[name]; {
		case !param && !turned && !keep:
			t.Errorf("%s (%s): nothing writes a value but its Default* one; make it a constant, or add it to knobKeep with a reason", name, fset.Position(f.Pos()))
		case (param || turned) && keep:
			t.Errorf("%s: a caller turns it; drop its knobKeep entry", name)
		}
	}
	for name := range knobKeep {
		if !names[name] {
			t.Errorf("knobKeep names %s, which is no knob in scope", name)
		}
	}
	t.Logf("%d knobs in scope on %d Config types", len(knobs), configs)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// knobValue is one value written to a field, as far as the gate tells
// values apart: a constant, the zero value (an omitted field, nil or an
// empty literal), or an expression it cannot pin, which counts as a value
// of its own.
type knobValue struct {
	c     constant.Value
	zero  bool
	param bool // the expression names a parameter of its function
}

func (a knobValue) equal(b knobValue) bool {
	switch {
	case a.zero && b.zero:
		return true
	case a.zero:
		return b.c != nil && constZero(b.c)
	case b.zero:
		return a.c != nil && constZero(a.c)
	case a.c == nil || b.c == nil:
		return false
	case a.c.Kind() == b.c.Kind() || constNumeric(a.c) && constNumeric(b.c):
		return constant.Compare(a.c, token.EQL, b.c)
	}
	return false
}

func constNumeric(c constant.Value) bool {
	k := c.Kind()
	return k == constant.Int || k == constant.Float || k == constant.Complex
}

func constZero(c constant.Value) bool {
	switch c.Kind() {
	case constant.Bool:
		return !constant.BoolVal(c)
	case constant.String:
		return constant.StringVal(c) == ""
	}
	return constNumeric(c) && constant.Sign(c) == 0
}

// knobKeep names the *Config fields whose only value in use is their
// Default* one that stay knobs on purpose, keyed pkg.Type.Field, each with
// the reason it stays. An entry is one of two kinds: a field the frozen
// benchmark (benchmarks/) writes, which changes only with a benchmark
// change; or a field a test shrinks a run with, where the constant would
// cost the package's tests more than 2 s.
var knobKeep = map[string]string{
	"adaptive.Config.TTL":              "the benchmark writes it (benchmarks/wl_fivearm.go, the inert arms' literal)",
	"catalog.Config.ReplicaAlpha":      "the benchmark writes it (benchmarks/workloads.go catalogConfig)",
	"querygen.Config.CoreFileOverlap":  "the benchmark writes it (benchmarks/wl_flood.go missCriteria)",
	"querygen.Config.TailFileOverlap":  "the benchmark writes it (benchmarks/wl_flood.go missCriteria)",
	"querygen.Config.MaxTermsPerQuery": "the benchmark writes it (benchmarks/wl_flood.go missCriteria)",
	"shortcuts.Config.ListSize":        "the benchmark writes it (benchmarks/wl_fivearm.go, the shortcuts arm)",
	"shortcuts.Config.TTL":             "the benchmark writes it (benchmarks/wl_fivearm.go, the shortcuts arm)",
	"experiments.SaturationConfig.Loads": "TestSaturationArmFilter sweeps two small loads; the five default loads take it " +
		"from 0.23 s to 3.4 s and the package from 18.3 s to 22.4 s",
}
