package repro_test

// exports_test.go is the ratchet against regrowth: an exported func, method
// or type under internal/ that no program names is deleted, not kept "in
// case". bench/, cmd/ and examples/ count as callers; tests do not, except
// for the reference implementations listed below.

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

// referenceOnly are the exports kept without a non-test caller because a test
// holds code that runs against them; each names that test.
var referenceOnly = map[string]string{
	"la.MatVec":                  "la TestLUSolve, solver and fdm tests: the dense product the solves are checked with",
	"la.CSR.MulVec":              "sem TestBuildAssembledCSRMatchesMatrixFree, la TestSparseCholesky: the assembled product",
	"sem.Disc.BuildAssembledCSR": "sem TestBuildAssembledCSRMatchesMatrixFree: the assembled operator the matrix-free one must equal",
	"sem.Disc.GatherGlobal":      "sem TestBuildAssembledCSRMatchesMatrixFree: element-local to global nodes",
	"sem.Disc.ScatterGlobal":     "sem TestBuildAssembledCSRMatchesMatrixFree: global nodes to element-local",
	"coarse.XXT.SolveSerial":     "coarse TestXXTDistributedMatchesSerial: the serial solve the distributed one must equal",
	"partition.RCB":              "partition TestRSBOnSEMMesh: the baseline RSB is measured against",
	"partition.Sizes":            "partition TestRSBBalanced and friends (checkBalance): part sizes",
	"ns.Solver.ApplyPrecond":     "parrun TestSchwarzApplicationMatchesSerialOnRanks: the serial preconditioner the ranks' must equal",
}

// export is one exported declaration: its key (pkg.Name or pkg.Type.Name)
// and the source range uses of its name must fall outside of.
type export struct {
	key, name  string
	start, end token.Pos
}

func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var exports []export
	decl := map[*ast.Ident]bool{} // names being declared, which are not uses
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
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
		files = append(files, f)
		ex := declarations(f, decl)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			exports = append(exports, ex...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	uses := map[string][]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}
	var problems []string
	declared := map[string]bool{}
	for _, e := range exports {
		declared[e.key] = true
		used := false
		for _, p := range uses[e.name] {
			if p < e.start || p >= e.end {
				used = true
				break
			}
		}
		_, ref := referenceOnly[e.key]
		switch {
		case !used && !ref:
			problems = append(problems, e.key+": exported, but no non-test file names it")
		case used && ref:
			problems = append(problems, e.key+": a program calls it now, drop it from referenceOnly")
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

// declarations marks every declared func, method, type, interface method and
// struct field name in f and returns the exported funcs, methods and types.
func declarations(f *ast.File, decl map[*ast.Ident]bool) []export {
	pkg := f.Name.Name
	var out []export
	add := func(id *ast.Ident, key string, n ast.Node) {
		decl[id] = true
		if id.IsExported() {
			out = append(out, export{key: key, name: id.Name, start: n.Pos(), end: n.End()})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			key := pkg + "." + d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := recvIdent(d.Recv.List[0].Type)
				decl[recv] = true // a method set is not a use of its type
				key = pkg + "." + recv.Name + "." + d.Name.Name
			}
			add(d.Name, key, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				add(ts.Name, pkg+"."+ts.Name.Name, ts)
				switch typ := ts.Type.(type) {
				case *ast.InterfaceType:
					for _, m := range typ.Methods.List {
						for _, id := range m.Names {
							add(id, pkg+"."+ts.Name.Name+"."+id.Name, m)
						}
					}
				case *ast.StructType:
					for _, fld := range typ.Fields.List {
						for _, id := range fld.Names {
							decl[id] = true
						}
					}
				}
			}
		}
	}
	return out
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
