// Package inceptionn_test holds the module's reachability check: every
// function declared outside a test file must be reachable from a binary
// (a main package: cmd/*, examples/*, bench/perf), or be named in
// keptUnreached with the reason it stays.
package inceptionn_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptUnreached names the functions no binary reaches that stay anyway,
// each with its reason. A kept function is a root for the rest of the scan,
// so what only it calls needs no entry of its own. An entry that a binary
// does reach, or that no longer exists, fails the test.
var keptUnreached = map[string]string{
	"inceptionn/internal/compress/lz.Decode":                  "the decoder the Fig. 7 LZ baseline's round-trip tests check its encoder against",
	"inceptionn/internal/compress/szlike.Codec.Decompress":    "the decoder the Fig. 7 SZ baseline's round-trip and error-bound tests check against",
	"inceptionn/internal/compress/truncate.Codec.Decompress":  "the decoder the Fig. 7 truncation baseline's round-trip tests check against",
	"inceptionn/internal/fpcodec.CompressGroup":               "the scalar group encoder the branch-free kernel is pinned against",
	"inceptionn/internal/fpcodec.Decompress":                  "the scalar whole-stream decoder the sharded kernel path is pinned against",
	"inceptionn/internal/fpcodec.DecompressGroup":             "the scalar group decoder the branch-free kernel is pinned against",
	"inceptionn/internal/fpcodec.SetLanes":                    "the kernel-path hook the tests of fpcodec and nic run their tables on both paths with",
	"inceptionn/internal/frame.ChecksumF32s":                  "the weight checksum TestTrainingArithmeticPinned pins training arithmetic with",
	"inceptionn/internal/nic.BurstDecompressor.Cycles":        "the Fig. 10 burst-buffer model's cycle count, which its accounting test pins",
	"inceptionn/internal/nic.BurstDecompressor.DecompressAll": "the Fig. 10 burst-buffer model (DESIGN.md §1), pinned bit-exact against the kernel",
	"inceptionn/internal/nic.BurstDecompressor.Stalls":        "the Fig. 10 burst-buffer model's stall count, which its accounting test pins",
	"inceptionn/internal/nic.NewBurstDecompressor":            "the Fig. 10 burst-buffer model's constructor",
	"inceptionn/internal/par.SetMaxWorkers":                   "the worker-count hook the tests of par, tensor, nn and fpcodec set",
	"inceptionn/internal/soak.Run":                            "the harness of make soaktest, driven from soak's own test",
	"inceptionn/internal/tune.Fitted.Validate":                "the holdout check TestFitRecordedProbes grades the fit with",
}

// implicitMethods are the method names the standard library calls through
// its own interfaces (fmt, errors, encoding/json, sort, io, flag, context).
// A method of one of these names, or of a name the module calls through an
// interface, counts as reached once its receiver type is live (see
// TestEveryFunctionReachesABinary).
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"Set": true, "Timeout": true, "Temporary": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
}

// TestEveryFunctionReachesABinary walks the call graph from every main
// package's functions, every init and every package-level declaration. A
// function or method named in reached code is reached. A method called
// through an interface is reached by name, in every type that has it, but
// only in types that are live: a value of the type appears somewhere in
// reached code as a composite literal, as the result of a call (a
// function, a conversion, new or make) or as a named constant. A type no
// reached code makes a value of has nothing to call the method on, so an
// implementation of an interface that no binary instantiates stays
// unreached however often the interface is called. A declaration without a
// body, the Go side of an assembly function, is reached from its callers
// like any other.
func TestEveryFunctionReachesABinary(t *testing.T) {
	m := loadModule(t)

	reached, ifaceNames, live := map[*types.Func]bool{}, map[string]bool{}, map[*types.TypeName]bool{}
	var work []*types.Func
	mark := func(f *types.Func) {
		f = f.Origin()
		if _, ok := m.decls[f]; ok && !reached[f] {
			reached[f] = true
			work = append(work, f)
		}
	}
	markName := func(name string) {
		if !ifaceNames[name] {
			ifaceNames[name] = true
			for _, f := range m.byName[name] {
				if live[recvTypeName(f)] {
					mark(f)
				}
			}
		}
	}
	var markLive func(t types.Type)
	markLive = func(t types.Type) {
		switch t := t.(type) {
		case *types.Tuple:
			for i := range t.Len() {
				markLive(t.At(i).Type())
			}
		case *types.Pointer:
			markLive(t.Elem())
		case *types.Named:
			obj := t.Origin().Obj()
			if live[obj] {
				return
			}
			live[obj] = true
			for _, f := range m.byRecv[obj] {
				if ifaceNames[f.Name()] {
					mark(f)
				}
			}
		}
	}
	visit := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit, *ast.CallExpr:
				markLive(info.Types[n.(ast.Expr)].Type)
			case *ast.Ident:
				switch obj := info.Uses[n].(type) {
				case *types.Const:
					markLive(obj.Type())
				case *types.Func:
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						markName(obj.Name())
					}
					mark(obj)
				}
			}
			return true
		})
	}
	drain := func() {
		for len(work) > 0 {
			f := work[len(work)-1]
			work = work[:len(work)-1]
			d := m.decls[f]
			visit(d.decl, d.pkg.info)
		}
	}

	for name := range implicitMethods {
		markName(name)
	}
	for _, p := range m.pkgs {
		for _, file := range p.files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					visit(decl, p.info)
				case *ast.FuncDecl:
					if p.types.Name() == "main" || (decl.Recv == nil && decl.Name.Name == "init") {
						mark(p.info.Defs[decl.Name].(*types.Func))
					}
				}
			}
		}
	}
	drain()

	byKey := map[string]*types.Func{}
	for f := range m.decls {
		byKey[funcKey(f)] = f
	}
	for _, k := range slices.Sorted(maps.Keys(keptUnreached)) {
		f, ok := byKey[k]
		switch {
		case !ok:
			t.Errorf("keptUnreached names %s, which no longer exists: drop the entry", k)
		case reached[f]:
			t.Errorf("keptUnreached names %s, which a binary reaches: drop the entry", k)
		default:
			mark(f)
		}
	}
	drain()

	var dead []string
	lines := 0
	for f, d := range m.decls {
		if !reached[f] {
			n := d.lines(m.fset)
			lines += n
			dead = append(dead, fmt.Sprintf("%s (%s, %d lines)", funcKey(f), m.fset.Position(d.decl.Pos()), n))
		}
	}
	if len(dead) > 0 {
		slices.Sort(dead)
		t.Errorf("%d functions (%d non-blank lines with their doc comments) are reached by no binary; "+
			"delete them, move them into a _test.go file, or add them to keptUnreached with a reason:\n\t%s",
			len(dead), lines, strings.Join(dead, "\n\t"))
	}
}

// funcKey names f as "importpath.Func" or "importpath.Type.Method".
func funcKey(f *types.Func) string {
	if f.Type().(*types.Signature).Recv() != nil {
		return f.Pkg().Path() + "." + recvTypeName(f).Name() + "." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

type pkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *pkg
}

// lines counts the declaration's non-blank lines, its doc comment included.
func (d funcDecl) lines(fset *token.FileSet) int {
	start := d.decl.Pos()
	if d.decl.Doc != nil {
		start = d.decl.Doc.Pos()
	}
	from, to := fset.Position(start), fset.Position(d.decl.End())
	src, err := os.ReadFile(from.Filename)
	if err != nil {
		return 0
	}
	n := 0
	for _, l := range strings.Split(string(src[from.Offset:to.Offset]), "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

type module struct {
	fset   *token.FileSet
	pkgs   []*pkg
	decls  map[*types.Func]funcDecl
	byName map[string][]*types.Func          // methods by name
	byRecv map[*types.TypeName][]*types.Func // methods by receiver type
}

// recvTypeName returns the named type the method f is declared on.
func recvTypeName(f *types.Func) *types.TypeName {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// loadModule type-checks every package of the module, test files left out,
// from the build context's view of the directory tree (what `go list ./...`
// lists), with the standard library imported from source.
func loadModule(t *testing.T) *module {
	const modPath = "inceptionn"
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	m := &module{fset: fset, decls: map[*types.Func]funcDecl{},
		byName: map[string][]*types.Func{}, byRecv: map[*types.TypeName][]*types.Func{}}
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		imp := modPath
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		dirs[imp] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	checked := map[string]*pkg{}
	var imp importerFunc
	check := func(path string) (*pkg, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		bp, err := build.ImportDir(dirs[path], 0)
		if err == nil && len(bp.GoFiles) == 0 {
			err = &build.NoGoError{Dir: bp.Dir}
		}
		if err != nil {
			return nil, err
		}
		p := &pkg{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		checked[path] = p
		m.pkgs = append(m.pkgs, p)
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn := p.info.Defs[fd.Name].(*types.Func)
					m.decls[fn] = funcDecl{fd, p}
					if fd.Recv != nil {
						m.byName[fn.Name()] = append(m.byName[fn.Name()], fn)
						recv := recvTypeName(fn)
						m.byRecv[recv] = append(m.byRecv[recv], fn)
					}
				}
			}
		}
		return p, nil
	}
	imp = func(path string) (*types.Package, error) {
		if path != modPath && !strings.HasPrefix(path, modPath+"/") {
			return std.Import(path)
		}
		p, err := check(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}

	for _, path := range slices.Sorted(maps.Keys(dirs)) {
		var noGo *build.NoGoError
		if _, err := check(path); err != nil && !errors.As(err, &noGo) {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
