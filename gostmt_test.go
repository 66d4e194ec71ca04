package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// orderAllowlist names the non-test functions, outside bench/, that may
// range over a map or read the clock, each with its reason. Go leaves a
// map's iteration order unspecified and a clock read differs per run,
// so either can make a record differ between two runs of one spec
// (DESIGN.md §4): each entry is order-free, sorted afterwards, or
// timing only. Keys are as in goAllowlist.
var orderAllowlist = map[string]string{
	"internal/algorithms/matching.Algorithm.broadcastPropose": "order-free: a delete loop; sorted afterwards: the neighbours are sorted before any value is drawn",
	"internal/beep.Network.RunSparse":                         "order-free: the minimum of the scheduled wake-up rounds",
	"internal/localbroadcast.NewHardInstance":                 "order-free: every right-part message becomes zero",
	"internal/localbroadcast.Algorithm.Send":                  "sorted afterwards: core.WrapCongest, its only runner, sorts a round's messages by destination",
	"internal/noise.Names":                                    "sorted afterwards",
	"internal/obs.Registry.Snapshot":                          "order-free: a copy of the registry; sorted afterwards: the metrics by name",
	"internal/rng.sharedGapCells":                             "order-free: the evicted entry is recomputed from its key, so only a later miss depends on the order",
	"internal/sim.EngineNames":                                "sorted afterwards",
	"internal/sim.WorkloadNames":                              "sorted afterwards",
	"internal/sweep.Aggregate":                                "sorted afterwards: the cells by key",
	"cmd/experiments.run":                                     "timing only: the suite's elapsed clock and each table's timing line",
	"cmd/sweepd.newServer":                                    "timing only: the clock of /progress",
	"internal/obs.Timer.Start":                                "timing only: a telemetry span",
	"internal/sweep.execute":                                  "timing only: a record's wall_nanos and build_nanos, which no equality reads",
	"internal/sweep.Service.Submit":                           "timing only: the job's elapsed clock",
}

// TestMapRangesAndClockReadsAllowlisted fails on a range over a map, or
// a use of time.Now, in a non-test function outside bench/ that
// orderAllowlist does not name, and on an entry whose function holds
// neither any more. It reads types from the module load the
// reachability test shares.
func TestMapRangesAndClockReadsAllowlisted(t *testing.T) {
	l := sharedModule(t)
	found := map[string][]string{} // key -> what it holds, and where
	for _, p := range l.pkgs {
		if p.path == "repro/bench" || strings.HasPrefix(p.path, "repro/bench/") {
			continue
		}
		pkg := strings.TrimPrefix(p.path, "repro/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				key := pkg + ".(package scope)"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					key = pkg + "." + funcDeclName(fd)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					var what string
					switch n := n.(type) {
					case *ast.RangeStmt:
						if _, ok := l.info.Types[n.X].Type.Underlying().(*types.Map); ok {
							what = "a range over a map"
						}
					case *ast.Ident:
						if fn, ok := l.info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
							what = "time.Now"
						}
					}
					if what != "" {
						pos := l.fset.Position(n.Pos())
						rel, err := filepath.Rel(l.root, pos.Filename)
						if err != nil {
							rel = pos.Filename
						}
						found[key] = append(found[key], what+" at "+filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line))
					}
					return true
				})
			}
		}
	}
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := orderAllowlist[key]; !ok {
			t.Errorf("%s holds %s: sort what the order reaches, or name the function in orderAllowlist with its reason",
				key, strings.Join(found[key], " and "))
		}
	}
	for key := range orderAllowlist {
		if found[key] == nil {
			t.Errorf("orderAllowlist names %s, which no longer ranges over a map or reads the clock: drop its entry", key)
		}
	}
}
