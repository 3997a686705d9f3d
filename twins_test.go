package mdsprint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoContextTwins holds the one-entry-point-per-operation rule: no
// scope under internal/ or cmd/ — a package's functions, or one
// receiver type's methods — may export both F and FCtx. Each operation
// keeps its context-first form, and a caller without a context passes
// context.Background().
func TestNoContextTwins(t *testing.T) {
	const facade = "mdsprint.Model is core.Model, whose context-free Predict the api.go facade exposes"
	allowed := map[string]string{
		"internal/core.NoML.Predict":   facade,
		"internal/core.Hybrid.Predict": facade,
	}
	exported := map[string]map[string]bool{} // scope -> exported func names
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				scope := filepath.ToSlash(filepath.Dir(path))
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					scope += "." + receiverType(fd.Recv.List[0].Type)
				}
				if exported[scope] == nil {
					exported[scope] = map[string]bool{}
				}
				exported[scope][fd.Name.Name] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var twins []string
	used := map[string]bool{}
	for scope, names := range exported {
		for name := range names {
			if !names[name+"Ctx"] {
				continue
			}
			key := scope + "." + name
			if _, ok := allowed[key]; ok {
				used[key] = true
				continue
			}
			twins = append(twins, key+" / "+name+"Ctx")
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("context twin: %s — export one entry point per operation", tw)
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("allow-list entry %s matches no twin; delete it", key)
		}
	}
}

// receiverType names a method receiver's base type: *T, T and T[P]
// all name T.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
