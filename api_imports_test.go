// The root package's tests, its Example functions included, must exercise
// the repository only through the public facade: importing
// querycentric/internal/... there would hide gaps in the exported API.
package querycentric_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestNoInternalImportsOutsideFacade(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("found no files to scan")
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if p == "querycentric/internal" || strings.HasPrefix(p, "querycentric/internal/") {
				t.Errorf("%s imports %s; use the public facade instead", path, p)
			}
		}
	}
}
