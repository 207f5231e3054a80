package repro_test

// exports_test.go is the ratchet against regrowth. Under internal/, an
// exported func, method or type that no program uses is deleted, not kept "in
// case", and so is an exported struct field that no program sets: an option
// nobody chooses is a configuration nobody tests. The programs are the non-test
// files of this module, cmd/, examples/ and the bench/ module; tests are not,
// except for the reference implementations listed below.
//
// Uses are resolved by the type checker, so a dead export does not survive on
// the callers of another name spelled the same.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// referenceOnly are the exports kept without a non-test caller because a test
// holds code that runs against them; each names that test.
var referenceOnly = map[string]string{
	"la.MatVec":                  "la TestLUSolve, solver and fdm tests: the dense product the solves are checked with",
	"la.CSR.MulVec":              "sem TestBuildAssembledCSRMatchesMatrixFree, la TestSparseCholesky: the assembled product",
	"sem.Disc.BuildAssembledCSR": "sem TestBuildAssembledCSRMatchesMatrixFree: the assembled operator the matrix-free one must equal",
	"sem.Disc.GatherGlobal":      "sem TestBuildAssembledCSRMatchesMatrixFree: element-local to global nodes",
	"sem.Disc.ScatterGlobal":     "sem TestBuildAssembledCSRMatchesMatrixFree: global nodes to element-local",
	"partition.RCB":              "partition TestRSBOnSEMMesh: the baseline RSB is measured against",
	"partition.Sizes":            "partition TestRSBBalanced and friends (checkBalance): part sizes",
	"ns.Solver.ApplyPrecond":     "parrun TestSchwarzApplicationMatchesSerialOnRanks: the serial preconditioner the ranks' must equal",
	"comm.Rank.Send":             "comm TestReplayMatchesMessageSchedule and TestRouteDeliversAsTheAllToAll, gs TestExchangeMatchesMessageSchedule: the message-passing oracles of the replays",
	"comm.Rank.Recv":             "comm TestReplayMatchesMessageSchedule and TestRouteDeliversAsTheAllToAll, gs TestExchangeMatchesMessageSchedule: the message-passing oracles of the replays",
}

func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	fset := token.NewFileSet()
	im := &treeImporter{
		fset: fset,
		tree: map[string][]*ast.File{},
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		done: map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Both modules are rooted here: bench/ is repro/bench.
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		im.tree[ip] = append(im.tree[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range im.tree {
		if _, err := im.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	s := scan(im)
	var problems []string
	declared := map[string]bool{}
	for obj, e := range s.exports {
		declared[e.key] = true
		_, ref := referenceOnly[e.key]
		switch {
		case !s.used[obj] && !ref:
			problems = append(problems, e.key+": exported, but no non-test file uses it")
		case s.used[obj] && ref:
			problems = append(problems, e.key+": a program uses it now, drop it from referenceOnly")
		}
	}
	for obj, key := range s.fields {
		if !s.set[obj] {
			problems = append(problems, key+": an exported field no non-test file sets")
		}
	}
	for k := range referenceOnly {
		if !declared[k] {
			problems = append(problems, k+": in referenceOnly, but declared nowhere under internal/")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// treeImporter type-checks the tree's packages from their parsed files, once
// each and into one types.Info, so that every use resolves to the object its
// declaration defines. Any other import path is the standard library's.
type treeImporter struct {
	fset *token.FileSet
	tree map[string][]*ast.File
	std  types.Importer
	info *types.Info
	done map[string]*types.Package
}

func (im *treeImporter) Import(ip string) (*types.Package, error) {
	if p, ok := im.done[ip]; ok {
		return p, nil
	}
	var p *types.Package
	var err error
	if files, ok := im.tree[ip]; ok {
		conf := types.Config{Importer: im}
		p, err = conf.Check(ip, im.fset, files, im.info)
	} else {
		p, err = im.std.Import(ip)
	}
	im.done[ip] = p
	return p, err
}

// export is an exported declaration under internal/: its key (pkg.Name or
// pkg.Type.Name) and the source range a use must fall outside of to count.
type export struct {
	key        string
	start, end token.Pos
}

type scanned struct {
	exports map[types.Object]export
	fields  map[types.Object]string // exported struct fields to be set, by key
	used    map[types.Object]bool
	set     map[types.Object]bool
}

// scan collects the exports and fields under internal/ and marks those the
// tree's non-test files use and set.
func scan(im *treeImporter) scanned {
	s := scanned{
		exports: map[types.Object]export{},
		fields:  map[types.Object]string{},
		used:    map[types.Object]bool{},
		set:     map[types.Object]bool{},
	}
	info := im.info
	receivers := map[*ast.Ident]bool{} // a method set is not a use of its type
	var concrete []types.Type          // T and *T of every non-interface type
	checked := func(id *ast.Ident) (types.Object, bool) {
		obj := info.Defs[id]
		return obj, id.IsExported() && strings.HasPrefix(obj.Pkg().Path(), "repro/internal/")
	}
	add := func(id *ast.Ident, key string, n ast.Node) {
		if obj, ok := checked(id); ok {
			s.exports[obj] = export{key: key, start: n.Pos(), end: n.End()}
		}
	}
	for _, files := range im.tree {
		for _, f := range files {
			pkg := f.Name.Name + "."
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := pkg + d.Name.Name
					if d.Recv != nil {
						recv := recvIdent(d.Recv.List[0].Type)
						receivers[recv] = true
						key = pkg + recv.Name + "." + d.Name.Name
					}
					add(d.Name, key, d)
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						ts, ok := sp.(*ast.TypeSpec)
						if !ok {
							continue
						}
						add(ts.Name, pkg+ts.Name.Name, ts)
						prefix := pkg + ts.Name.Name + "."
						switch typ := ts.Type.(type) {
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, id := range m.Names {
									add(id, prefix+id.Name, m)
								}
							}
						case *ast.StructType:
							for _, fld := range typ.Fields.List {
								if fld.Tag != nil { // a wire field: a decoder sets it
									continue
								}
								for _, id := range fld.Names {
									if obj, ok := checked(id); ok {
										s.fields[obj] = prefix + id.Name
									}
								}
							}
						}
						if n := info.Defs[ts.Name].Type(); !types.IsInterface(n) {
							concrete = append(concrete, n, types.NewPointer(n))
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				s.markWrites(info, n)
				return true
			})
		}
	}

	// Direct uses, outside the declaration itself. A called interface method
	// is kept aside: the methods it reaches are used too.
	called := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		if receivers[id] {
			continue
		}
		obj = origin(obj)
		if e, ok := s.exports[obj]; ok && (id.Pos() < e.start || id.Pos() >= e.end) {
			s.used[obj] = true
		}
		if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			s.used[obj], called[fn] = true, true
		}
	}
	// The standard library calls methods through its own interfaces (fmt's
	// Stringer, error, http.Handler), out of this scan's sight: every method of
	// an interface a package the tree imports exports counts as called.
	stdIfaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, p := range im.done {
		if strings.HasPrefix(p.Path(), "repro") {
			continue
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
				stdIfaces = append(stdIfaces, tn.Type())
			}
		}
	}
	for _, t := range stdIfaces {
		iface := t.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface.Method(i)] = true
		}
	}
	for fn := range called {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, t := range concrete {
			if types.Implements(t, iface) {
				if m, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); m != nil {
					s.used[origin(m)] = true
				}
			}
		}
	}
	return s
}

// markWrites marks the struct fields n sets: a key of a composite literal,
// every field of an unkeyed one, the target of an assignment or of ++/--, or
// an operand of &. An element assigned in an array field sets the field.
func (s scanned) markWrites(info *types.Info, n ast.Node) {
	mark := func(x ast.Expr) {
		for {
			switch e := ast.Unparen(x).(type) {
			case *ast.SelectorExpr:
				if obj, ok := info.Uses[e.Sel].(*types.Var); ok && obj.IsField() {
					s.set[obj.Origin()] = true
				}
				return
			case *ast.IndexExpr:
				if _, ok := info.Types[e.X].Type.Underlying().(*types.Array); !ok {
					return
				}
				x = e.X
			default:
				return
			}
		}
	}
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := info.Types[n].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				s.set[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
			} else {
				s.set[st.Field(i).Origin()] = true
			}
		}
	case *ast.AssignStmt:
		for _, x := range n.Lhs {
			mark(x)
		}
	case *ast.IncDecStmt:
		mark(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			mark(n.X)
		}
	}
}

// isInterfaceMethod reports whether fn is a method declared by an interface.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// origin is the generic declaration an instantiated func or field came from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvIdent is the base type name of a method receiver: T, *T, T[P], *T[P].
func recvIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		default:
			return e.(*ast.Ident)
		}
	}
}
