// Package deadcode holds the repository's dead-surface gate: every
// package-level function, method, type, var and const under internal/ must
// be reachable from code that is not a test.
//
// The gate type-checks every non-test file of the main module and of the
// bench module (its own go.mod, which replaces repro with this tree) with
// go/types. Packages under repro/ and repro/bench/ are read from the source
// tree; the standard library comes from GOROOT through the source importer,
// so nothing is fetched. Everything outside internal/ is a root: the repro
// facade (the module's public API), cmd/, examples/ and bench/. So is
// internal/fault, test support by design, and every entry of allowlist.
// From the roots the gate follows each identifier's uses to the
// declarations they name; what is never reached is dead, including code
// whose only callers are themselves dead.
//
// Methods are matched by name where interfaces are concerned: a method of a
// live type counts as used when some interface in the program (the
// repository or any standard-library package it imports) declares a method
// of that name, and String and Error always count. That makes the gate a
// lower bound on dead code, never a false alarm on a method that satisfies
// an interface.
package deadcode

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlist names the declarations under internal/ that no non-test code
// reaches but that a test in another package needs, keyed
// "internal/<pkg>.<Name>" or "internal/<pkg>.<Type>.<Method>", each with
// the test that needs it. An entry that is not dead fails the gate too, so
// the list cannot go stale.
var allowlist = map[string]string{
	"internal/nn.TrainingStateBytes":     "serve's TestReleasedClassifierTrainsBitIdentically holds a pruned classifier's training state to zero bytes",
	"internal/serve.Server.Pool":         "cmd/crisp's TestGracefulShutdownFlushesPendingSnapshots wedges the lone pool worker through it",
	"internal/sparsity.VerifyRowBalance": "the CRISP row-balance oracle of core's TestApplyHybridInvariants and pruner's TestCRISPMaskInvariants",
}

func TestNoDeadSurface(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(b), "module repro\n") {
		t.Fatalf("%s is not the repro module root (%v)", root, err)
	}
	p, err := loadProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	// An allowlisted declaration must be dead without the allowlist, and
	// only what it alone reaches is excused with it.
	stale := make(map[string]bool, len(allowlist))
	for k := range allowlist {
		stale[k] = true
	}
	for _, obj := range p.unreached(nil) {
		delete(stale, p.key(obj))
	}
	for k := range stale {
		t.Errorf("allowlist entry %s is not a dead declaration under internal/: drop it", k)
	}
	for _, obj := range p.unreached(allowlist) {
		pos := p.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		t.Errorf("no non-test code uses %s (%s:%d): delete it, or allowlist it with the test that needs it", p.key(obj), rel, pos.Line)
	}
}

// program is every non-test package of the two modules, type-checked, with
// the package-level declarations each one's body refers to.
type program struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string // import path → directory
	pkgs map[string]*types.Package

	decls     []types.Object                  // every package-level declaration, in load order
	refs      map[types.Object][]types.Object // declaration → declarations its body names
	methods   map[*types.TypeName][]*types.Func
	ifaceName map[string]bool // method names some interface declares
}

func loadProgram(root string) (*program, error) {
	// The source importer would run cgo on the standard library's cgo files;
	// the pure-Go fallbacks type-check the same API without a C toolchain.
	build.Default.CgoEnabled = false
	p := &program{
		root:      root,
		fset:      token.NewFileSet(),
		dirs:      make(map[string]string),
		pkgs:      make(map[string]*types.Package),
		refs:      make(map[types.Object][]types.Object),
		methods:   make(map[*types.TypeName][]*types.Func),
		ifaceName: map[string]bool{"String": true, "Error": true},
	}
	p.std = importer.ForCompiler(p.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := "repro"
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		p.dirs[ip] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(p.dirs))
	for ip := range p.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := p.load(ip); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
	}
	p.collectInterfaces()
	return p, nil
}

// Import and ImportFrom make program the type checker's importer: repro
// packages come from the tree, everything else from the standard library.
func (p *program) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, p.root, 0)
}

func (p *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if inRepo(path) {
		return p.load(path)
	}
	return p.std.ImportFrom(path, dir, mode)
}

func (p *program) load(ip string) (*types.Package, error) {
	if pkg, ok := p.pkgs[ip]; ok {
		return pkg, nil
	}
	dir, ok := p.dirs[ip]
	if !ok {
		return nil, fmt.Errorf("import %q: no such directory in the tree", ip)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	pkg, err := (&types.Config{Importer: p}).Check(ip, p.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", ip, err)
	}
	p.pkgs[ip] = pkg
	for _, f := range files {
		p.index(f, info)
	}
	return pkg, nil
}

// index records each package-level declaration of f and the declarations
// its body names. Interfaces written in the file add their method names.
func (p *program) index(f *ast.File, info *types.Info) {
	for _, decl := range f.Decls {
		var owners []types.Object
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn := info.Defs[d.Name].(*types.Func)
			owners = append(owners, fn)
			if recv := fn.Signature().Recv(); recv != nil {
				if tn := baseTypeName(recv.Type()); tn != nil {
					p.methods[tn] = append(p.methods[tn], fn)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					owners = append(owners, info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, n := range s.Names {
						owners = append(owners, info.Defs[n])
					}
				}
			}
		}
		p.decls = append(p.decls, owners...)
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := origin(info.Uses[n]); declared(obj) {
					for _, o := range owners {
						p.refs[o] = append(p.refs[o], obj)
					}
				}
			case *ast.InterfaceType:
				if iface, ok := info.Types[n].Type.(*types.Interface); ok {
					p.addInterface(iface)
				}
			}
			return true
		})
	}
}

// collectInterfaces adds the method names of every interface type declared
// at package level in the standard-library packages the program imports.
func (p *program) collectInterfaces() {
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					p.addInterface(iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg)
	}
}

func (p *program) addInterface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		p.ifaceName[iface.Method(i).Name()] = true
	}
}

// unreached returns the declarations under internal/ (outside
// internal/fault) that no root reaches, in load order. The entries of
// excused count as roots.
func (p *program) unreached(excused map[string]string) []types.Object {
	live := make(map[types.Object]bool)
	var work []types.Object
	mark := func(obj types.Object) {
		if !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range p.decls {
		if !p.inScope(obj) || obj.Name() == "_" || obj.Name() == "init" {
			mark(obj)
		} else if _, ok := excused[p.key(obj)]; ok {
			mark(obj)
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, ref := range p.refs[obj] {
			mark(ref)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range p.methods[tn] {
				if p.ifaceName[m.Name()] {
					mark(m)
				}
			}
		}
	}
	var out []types.Object
	for _, obj := range p.decls {
		if !live[obj] {
			out = append(out, obj)
		}
	}
	return out
}

// inScope reports whether the gate judges obj: a declaration under
// repro/internal/, outside repro/internal/fault.
func (p *program) inScope(obj types.Object) bool {
	path := obj.Pkg().Path()
	return strings.HasPrefix(path, "repro/internal/") && path != "repro/internal/fault"
}

// key names obj the way allowlist does.
func (p *program) key(obj types.Object) string {
	k := strings.TrimPrefix(obj.Pkg().Path(), "repro/") + "."
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if tn := baseTypeName(fn.Signature().Recv().Type()); tn != nil {
			k += tn.Name() + "."
		}
	}
	return k + obj.Name()
}

// declared reports whether obj is a package-level declaration or a method
// of a repro package: what a use can make live.
func declared(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || !inRepo(obj.Pkg().Path()) {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// inRepo reports whether an import path names a package of the two modules.
func inRepo(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/") }

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// baseTypeName is the named type behind a method receiver, T or *T.
func baseTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}
