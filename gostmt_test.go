package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goAllowlist names the non-test functions that may hold a go statement,
// each with its reason. Everything that runs per-vertex work in parallel
// goes through engine.Pool, so a new go statement is either a new
// long-lived goroutine with an owner that stops it, or a second
// dispatcher that should have been the pool. Keys are as in
// reachAllowlist: the import path below the module, then the receiver
// type for a method, then the name.
var goAllowlist = map[string]string{
	"internal/engine.Pool.dispatch": "the worker pool: every engine phase and every streaming graph build runs its spans here",
	"internal/obs.Serve":            "the telemetry listener, stopped by the returned server's Close",
	"internal/sweep.NewService":     "the scheduler's resident workers, stopped by Service.Close",
	"cmd/sweepd.main":               "the signal handler that closes the HTTP server on SIGINT or SIGTERM",
}

// TestGoStatementsAllowlisted fails on a go statement in a non-test
// function of the module that goAllowlist does not name, and on an entry
// whose function no longer starts a goroutine. It parses the source
// alone; the benchmark module under bench/ is its own module and is not
// scanned.
func TestGoStatementsAllowlisted(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := map[string][]string{} // key -> positions of its go statements
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := filepath.ToSlash(filepath.Dir(rel))
		if pkg == "." {
			pkg = "repro"
		}
		for _, decl := range f.Decls {
			key := pkg + ".(package scope)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				key = pkg + "." + funcDeclName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found[key] = append(found[key], rel+":"+strconv.Itoa(fset.Position(g.Pos()).Line))
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := goAllowlist[key]; !ok {
			t.Errorf("%s: %s starts a goroutine; run the work on engine.Pool, or name the function in goAllowlist with its reason",
				strings.Join(found[key], ", "), key)
		}
	}
	for key := range goAllowlist {
		if found[key] == nil {
			t.Errorf("goAllowlist names %s, which no longer starts a goroutine: drop its entry", key)
		}
	}
}

// funcDeclName is a declaration's name, prefixed by its receiver's type
// name for a method.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	for {
		switch e := typ.(type) {
		case *ast.StarExpr:
			typ = e.X
		case *ast.IndexExpr:
			typ = e.X
		case *ast.IndexListExpr:
			typ = e.X
		case *ast.Ident:
			return e.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}
