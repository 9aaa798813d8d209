package freepdm

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

// exportAllowlist names the exported declarations that may have no
// caller in a non-test file, keyed by directory or directory.Name, each
// with its reason.
var exportAllowlist = map[string]string{
	"internal/tuplespace/storetest":            "the Store conformance suite; only the backends' tests run it",
	"internal/faultnet":                        "the fault-injecting proxy; only chaos tests drive it",
	"internal/obs.CheckPrometheusText":         "the exposition-format checker that obs, cmd/plinda and tuplespace tests share",
	"internal/rnatree.PlantMotif":              "a generator that treemotif tests share with rnatree's",
	"internal/rnatree.RandomStructure":         "a generator that treemotif tests share with rnatree's",
	"internal/parallel.C45Trials":              "a chapter 6 program; ROADMAP 9(d) decides its fate",
	"internal/parallel.NyuMinerRS":             "a chapter 6 program; ROADMAP 9(d) decides its fate",
	"internal/classify/c45.TrainTrialsSeeded":  "the sequential twin of parallel.C45Trials; ROADMAP 9(d)",
	"internal/classify/nyuminer.TrainRSSeeded": "the sequential twin of parallel.NyuMinerRS; ROADMAP 9(d)",
}

// exportDecl is one exported top-level func or type of a library
// package: the spans of its own declaration (for a type, with its
// methods), inside which a reference is not a use, and the uses found.
type exportDecl struct {
	own   [][2]token.Pos
	calls int
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	dir  string // slash-separated, relative to the root
	f    *ast.File
	test bool
}

// parseRepo parses every Go file under the root, the nested benchmark
// module included, outside testdata and dot directories.
func parseRepo(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(path)),
			f:    f,
			test: strings.HasSuffix(path, "_test.go"),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName is the base type name of a method's receiver.
func recvName(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// exportedDecls indexes the exported top-level funcs and types of every
// library package of the module, keyed by directory.Name. Main packages
// and the benchmark's own module are callers only.
func exportedDecls(files []goFile) map[string]*exportDecl {
	decls := map[string]*exportDecl{}
	declare := func(key string, from, to token.Pos) {
		if decls[key] == nil {
			decls[key] = &exportDecl{}
		}
		decls[key].own = append(decls[key].own, [2]token.Pos{from, to})
	}
	var lib []goFile
	for _, gf := range files {
		if gf.test || gf.f.Name.Name == "main" || gf.dir == "internal/bench" || strings.HasPrefix(gf.dir, "internal/bench/") {
			continue
		}
		lib = append(lib, gf)
		for _, decl := range gf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					declare(gf.dir+"."+d.Name.Name, d.Pos(), d.End())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						declare(gf.dir+"."+ts.Name.Name, ts.Pos(), ts.End())
					}
				}
			}
		}
	}
	for _, gf := range lib { // a type's methods are part of its declaration
		for _, decl := range gf.f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				if e := decls[gf.dir+"."+recvName(fd)]; e != nil {
					e.own = append(e.own, [2]token.Pos{fd.Pos(), fd.End()})
				}
			}
		}
	}
	return decls
}

// countUses adds to each declaration the references that non-test files
// make to it from outside its own declaration: pkg.Name from another
// package, a bare Name from its own.
func countUses(t *testing.T, files []goFile, decls map[string]*exportDecl) {
	t.Helper()
	module := modulePath(t)
	use := func(key string, pos token.Pos) {
		e := decls[key]
		if e == nil {
			return
		}
		for _, r := range e.own {
			if pos >= r[0] && pos < r[1] {
				return
			}
		}
		e.calls++
	}
	for _, gf := range files {
		if gf.test {
			continue
		}
		imports := map[string]string{} // local name -> directory
		for _, is := range gf.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			dir, ok := strings.CutPrefix(p, module+"/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		// Names that declare, or select a field or method, are not
		// references to a package-level identifier.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				skip[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						use(dir+"."+x.Sel.Name, x.Pos())
					}
				}
			case *ast.Field:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.FuncDecl:
				skip[x.Name] = true
			case *ast.TypeSpec:
				skip[x.Name] = true
			case *ast.ValueSpec:
				for _, id := range x.Names {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[x] && x.IsExported() {
					use(gf.dir+"."+x.Name, x.Pos())
				}
			}
			return true
		})
	}
}

// modulePath is the module line of go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}

// TestExportsHaveCallers fails when an exported top-level func or type
// of a library package has no reference from a non-test file outside
// its own declaration, a type's methods included: code that only tests
// call belongs in a _test.go file or nowhere. Commands, examples and the
// benchmark count as callers. It also fails on an allowlist entry that
// names nothing, or nothing left without a caller.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseRepo(t, fset)
	decls := exportedDecls(files)
	countUses(t, files, decls)

	needed := map[string]bool{}
	var dead []string
	for key, e := range decls {
		if e.calls > 0 {
			continue
		}
		dir := key[:strings.LastIndex(key, ".")]
		switch {
		case exportAllowlist[key] != "":
			needed[key] = true
		case exportAllowlist[dir] != "":
			needed[dir] = true
		default:
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		i := strings.LastIndex(key, ".")
		t.Errorf("%s declares %s, which no non-test file uses: move it into a _test.go file or delete it",
			key[:i], key[i+1:])
	}
	for key := range exportAllowlist {
		if !needed[key] {
			t.Errorf("allowlist entry %s names nothing without a caller: remove it", key)
		}
	}
}
