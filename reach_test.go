package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names the non-test functions that no binary reaches but
// that stay in non-test files, each with its reason. A function that only
// tests reach is deleted, or moves into the _test.go files of the one package
// whose tests use it (DESIGN.md §4). It stays here only when tests in other
// packages use it, because a _test.go file cannot export it; what an entry
// calls is kept with it. Keys are the import path below the module, then the
// receiver type for a method, then the name.
var reachAllowlist = map[string]string{
	"internal/graph.Path":                      "fixture: tests in 12 packages build paths",
	"internal/graph.Star":                      "fixture: tests in 6 packages build stars",
	"internal/graph.Hypercube":                 "fixture: beep, beepalgs and bfstree tests build hypercubes",
	"internal/graph.CompleteBipartite":         "fixture: baseline and matching tests build complete bipartite graphs",
	"internal/graph.Grid":                      "fixture: tests in 5 packages build grids",
	"internal/graph.Complete":                  "fixture: tests in 10 packages build complete graphs",
	"internal/graph.Cycle":                     "fixture: tests in 11 packages build cycles",
	"internal/graph.Graph.Diameter":            "fixture: graph, bfstree and beepalgs tests measure diameters",
	"internal/beep.PerNode.Len":                "fixture: beep and beepalgs tests and the root engine benchmarks drive per-node programs through PerNode; the drivers reach its other methods through ProgramSet",
	"internal/bitstring.Parse":                 "fixture: beep, codes and localbroadcast tests write bit patterns as text",
	"internal/bitstring.BitString.Equal":       "fixture: beep, codes, core and graph tests compare bit strings",
	"internal/bitstring.BitString.Flip":        "fixture: codes tests corrupt chosen codeword positions",
	"internal/codes.RepetitionCode.DecodeInto": "reference: codes and core tests pin the fused DecodeCollidedInto against it",
	"internal/sim.FlightGroup.Waiters":         "fixture: sweep's singleflight tests wait until a task has joined a flight",
}

// reachMethodNames are the method names that the standard library calls
// through its own interfaces: error, fmt.Stringer, json.Marshaler,
// http.Handler, sort.Interface and io.Writer. The scan sees only calls
// made in this module's code.
var reachMethodNames = map[string]bool{
	"Error": true, "String": true, "MarshalJSON": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Write": true,
}

// TestEveryFunctionHasANonTestCaller checks that every function and method in
// the module's non-test files, the benchmark module's included, lies on a
// path that some binary can run. Roots are main, init and the initializers of
// package variables other than _ (so a `var _ I = (*T)(nil)` assertion calls
// nothing), in the packages the binaries import. A function is reached when
// reached code names it. A method is also reached when its receiver type is
// reached and its name is that of an interface method that reached code
// names, or one of reachMethodNames.
func TestEveryFunctionHasANonTestCaller(t *testing.T) {
	l := sharedModule(t)
	s := &reachScan{
		info:    l.info,
		decls:   map[*types.Func]*ast.FuncDecl{},
		specs:   map[*types.TypeName]*ast.TypeSpec{},
		fns:     map[*types.Func]bool{},
		types:   map[*types.TypeName]bool{},
		dynamic: map[string]bool{},
	}
	for name := range reachMethodNames {
		s.dynamic[name] = true
	}
	// Register every declaration; queue the roots of the linked packages.
	var methods []*types.Func
	for _, p := range l.pkgs {
		linked := l.linked[p.path]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := l.info.Defs[d.Name].(*types.Func)
					s.decls[fn] = d
					if d.Recv != nil {
						methods = append(methods, fn)
					} else if linked && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						s.reachFn(fn)
					}
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							s.specs[l.info.Defs[sp.Name].(*types.TypeName)] = sp
						case *ast.ValueSpec:
							if linked && d.Tok == token.VAR && slices.ContainsFunc(sp.Names, func(n *ast.Ident) bool { return n.Name != "_" }) {
								s.queue = append(s.queue, sp)
							}
						}
					}
				}
			}
		}
	}
	s.fixpoint(methods)
	seen := map[string]bool{}
	for fn := range s.decls {
		key := reachKey(fn)
		seen[key] = true
		if _, ok := reachAllowlist[key]; !ok {
			continue
		}
		if s.fns[fn] {
			t.Errorf("%s is allowlisted but a binary now reaches it: drop its reachAllowlist entry", key)
		}
		s.reachFn(fn)
	}
	for key := range reachAllowlist {
		if !seen[key] {
			t.Errorf("reachAllowlist names %s, which no longer exists", key)
		}
	}
	s.fixpoint(methods)

	var unreached []string
	for fn, d := range s.decls {
		if s.fns[fn] {
			continue
		}
		pos := l.fset.Position(d.Pos())
		rel, err := filepath.Rel(l.root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		unreached = append(unreached, rel+":"+strconv.Itoa(pos.Line)+": "+reachKey(fn))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: no binary reaches it; delete it or move it into the _test.go files that use it", u)
	}
}

// reachScan walks the declarations that binaries reach, from the roots out.
type reachScan struct {
	info    *types.Info
	decls   map[*types.Func]*ast.FuncDecl
	specs   map[*types.TypeName]*ast.TypeSpec
	fns     map[*types.Func]bool
	types   map[*types.TypeName]bool
	dynamic map[string]bool // method names that can be called dynamically
	queue   []ast.Node
}

func (s *reachScan) reachFn(fn *types.Func) {
	fn = fn.Origin()
	if d, ok := s.decls[fn]; ok && !s.fns[fn] {
		s.fns[fn] = true
		s.queue = append(s.queue, d)
	}
}

func (s *reachScan) reachType(tn *types.TypeName) {
	if ts, ok := s.specs[tn]; ok && !s.types[tn] {
		s.types[tn] = true
		s.queue = append(s.queue, ts)
	}
}

// fixpoint walks everything queued, then adds the methods that dynamic
// calls can reach, until nothing new is reached.
func (s *reachScan) fixpoint(methods []*types.Func) {
	for {
		s.drain()
		grew := false
		for _, m := range methods {
			if !s.fns[m] && s.types[recvTypeName(m)] && s.dynamic[m.Name()] {
				s.reachFn(m)
				grew = true
			}
		}
		if !grew {
			return
		}
	}
}

func (s *reachScan) drain() {
	for len(s.queue) > 0 {
		n := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := s.info.Uses[id].(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					s.dynamic[obj.Name()] = true
				}
				s.reachFn(obj)
			case *types.TypeName:
				s.reachType(obj)
			}
			return true
		})
	}
}

// recvTypeName is the named type a method is declared on.
func recvTypeName(m *types.Func) *types.TypeName {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func reachKey(fn *types.Func) string {
	key := strings.TrimPrefix(fn.Pkg().Path(), "repro/") + "."
	if tn := recvTypeName(fn); tn != nil {
		key += tn.Name() + "."
	}
	return key + fn.Name()
}

type reachPkg struct {
	path  string
	files []*ast.File
	types *types.Package
}

// reachLoader type-checks the module's non-test packages, and the benchmark
// module's, from source; the standard library comes from the source importer.
type reachLoader struct {
	t      *testing.T
	root   string
	fset   *token.FileSet
	std    types.ImporterFrom
	info   *types.Info
	byPath map[string]*reachPkg
	pkgs   []*reachPkg
	linked map[string]bool // packages that some main package imports
}

// module is the one type-checked load of the module that the root
// package's tests share: a load takes seconds.
var module struct {
	once sync.Once
	l    *reachLoader
}

// sharedModule returns the shared load, loading it on first use. A
// load that failed fails every later caller too.
func sharedModule(t *testing.T) *reachLoader {
	module.once.Do(func() { module.l = loadModule(t) })
	if module.l == nil {
		t.Fatal("loading the module failed")
	}
	return module.l
}

func loadModule(t *testing.T) *reachLoader {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Type-check the standard library's pure-Go files: cgo-enabled
	// variants only add build time, not API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &reachLoader{
		t:      t,
		root:   root,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		byPath: map[string]*reachPkg{},
		linked: map[string]bool{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		p, err := l.parseDir(path)
		if err != nil || p == nil {
			return err
		}
		l.byPath[p.path] = p
		l.pkgs = append(l.pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.pkgs {
		l.check(p)
	}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if _, ours := l.byPath[p.Path()]; !ours || l.linked[p.Path()] {
			return
		}
		l.linked[p.Path()] = true
		for _, imp := range p.Imports() {
			link(imp)
		}
	}
	for _, p := range l.pkgs {
		if p.types.Name() == "main" {
			link(p.types)
		}
	}
	return l
}

func (l *reachLoader) parseDir(dir string) (*reachPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{path: "repro"}
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

func (l *reachLoader) check(p *reachPkg) *types.Package {
	if p.types != nil {
		return p.types
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(p.path, l.fset, p.files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", p.path, err)
	}
	p.types = tp
	return tp
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *reachLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.byPath[path]; ok {
		return l.check(p), nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
