package contory

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Everything that runs while the virtual clock runs draws from
// internal/draw, keyed by seed, identity and counter. Only the fleet's
// population, stagger and churn streams and the chaos planner, which draw
// once on one goroutine before the clock starts, may use math/rand. This
// test fails when any other package of the module imports it.
func TestOnlySetupCodeImportsMathRand(t *testing.T) {
	allowed := map[string]bool{"internal/fleet": true, "internal/chaos": true}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, not this one
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if (p == "math/rand" || p == "math/rand/v2") && !allowed[filepath.ToSlash(filepath.Dir(path))] {
				t.Errorf("%s imports %s: draw runtime randomness from contory/internal/draw", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d non-test Go files; is the walk rooted at the module?", files)
	}
}
