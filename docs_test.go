package querycentric_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	qc "querycentric"
)

var (
	docExperiment = regexp.MustCompile(`experiments\.([A-Z][A-Za-z0-9_]*)`)
	docSimMode    = regexp.MustCompile(`qc-sim\s+-mode\s+([^\s` + "`" + `\[\];,.)]+)`)
	readmeModes   = regexp.MustCompile("lists them:\\s*`([^`]+)`")
)

// TestDocsNameLiveCode fails when README.md, DESIGN.md or EXPERIMENTS.md
// name code that is gone: an experiments.<Name> that is no top-level
// declaration of internal/experiments' non-test files, a `qc-sim -mode <m>`
// whose <m> is no Sim entry of Runners, or a README mode list that differs
// from the Sim entries in registry order. It parses files only.
func TestDocsNameLiveCode(t *testing.T) {
	decls := map[string]bool{}
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/experiments", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						decls[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decls[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	var sims []string
	for _, r := range qc.Runners {
		if r.Sim {
			sims = append(sims, r.Name)
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		lineOf := func(off int) int { return 1 + strings.Count(text[:off], "\n") }
		for _, m := range docExperiment.FindAllStringSubmatchIndex(text, -1) {
			if name := text[m[2]:m[3]]; !decls[name] {
				t.Errorf("%s:%d: experiments.%s is not declared in internal/experiments", doc, lineOf(m[0]), name)
			}
		}
		for _, m := range docSimMode.FindAllStringSubmatchIndex(text, -1) {
			for _, mode := range strings.Split(text[m[2]:m[3]], "|") {
				// Placeholders stand for any mode.
				if mode == "*" || mode == "…" || strings.HasPrefix(mode, "<") {
					continue
				}
				if !slices.Contains(sims, mode) {
					t.Errorf("%s:%d: qc-sim -mode %s is not a Sim entry of Runners", doc, lineOf(m[0]), mode)
				}
			}
		}
		if doc == "README.md" {
			m := readmeModes.FindStringSubmatch(text)
			if m == nil {
				t.Errorf("README.md: no backticked mode list after \"lists them:\"")
			} else if got := strings.Split(m[1], "|"); !slices.Equal(got, sims) {
				t.Errorf("README.md mode list %q, want the Sim entries %q", m[1], strings.Join(sims, "|"))
			}
		}
	}
}
