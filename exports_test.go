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

// library reports whether the file is non-test code of a library
// package. Main packages and the benchmark's own module only call.
func (gf goFile) library() bool {
	return !gf.test && gf.f.Name.Name != "main" && gf.dir != "internal/bench" && !strings.HasPrefix(gf.dir, "internal/bench/")
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
		if !gf.library() {
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
		imports := moduleImports(gf.f, module)
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

// moduleImports maps the local name of each module package a file
// imports to its directory.
func moduleImports(f *ast.File, module string) map[string]string {
	imports := map[string]string{}
	for _, is := range f.Imports {
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
	return imports
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

// optionAllowlist names the option fields that may have no setter
// outside their own package, keyed directory.Type.Field, each with its
// reason.
var optionAllowlist = map[string]string{
	"internal/tuplespace.DialOptions.Heartbeat": "the partition tests' switch for the background pinger",
	"internal/cluster.Options.RetryTimeout":     "ROADMAP 2 decides the Router's fate",
	"internal/cluster.Options.Backoff":          "ROADMAP 2 decides the Router's fate",
}

// isOptionType reports whether a type name is an options struct's.
func isOptionType(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params")
}

// optionFields lists the exported fields of the exported *Options,
// *Config and *Params structs of every library package, keyed
// directory.Type.Field. Main packages and the benchmark's own module
// are setters only.
func optionFields(files []goFile) map[string]bool {
	fields := map[string]bool{}
	for _, gf := range files {
		if !gf.library() {
			continue
		}
		for _, decl := range gf.f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !isOptionType(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							fields[gf.dir+"."+ts.Name.Name+"."+id.Name] = false
						}
					}
				}
			}
		}
	}
	return fields
}

// markSetters sets to true each option field that a non-test file
// outside the field's own package sets: as a key of a composite
// literal of the struct's type, or by assigning to v.Field where the
// file declares v as a variable or parameter of that type or a pointer
// to it (scopes are not told apart).
func markSetters(t *testing.T, files []goFile, fields map[string]bool) {
	t.Helper()
	module := modulePath(t)
	for _, gf := range files {
		if gf.test {
			continue
		}
		imports := moduleImports(gf.f, module)
		// typeKey is directory.Type for a reference, through at most one
		// pointer or address-of, to another package's option type or to
		// a composite literal of one.
		typeKey := func(x ast.Expr) string {
			switch y := x.(type) {
			case *ast.StarExpr:
				x = y.X
			case *ast.UnaryExpr:
				x = y.X
			}
			if lit, ok := x.(*ast.CompositeLit); ok {
				x = lit.Type
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || !isOptionType(sel.Sel.Name) {
				return ""
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" && imports[pkg.Name] != gf.dir {
				return imports[pkg.Name] + "." + sel.Sel.Name
			}
			return ""
		}
		set := func(key, field string) {
			if _, ok := fields[key+"."+field]; ok {
				fields[key+"."+field] = true
			}
		}
		vars := map[string][]string{} // identifier -> the option types it is declared with
		declare := func(id *ast.Ident, x ast.Expr) {
			if key := typeKey(x); key != "" {
				vars[id.Name] = append(vars[id.Name], key)
			}
		}
		var assigns []*ast.AssignStmt
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if key := typeKey(x.Type); key != "" {
					for _, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set(key, id.Name)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range x.Names {
					if x.Type != nil {
						declare(id, x.Type)
					} else if i < len(x.Values) {
						declare(id, x.Values[i])
					}
				}
			case *ast.FuncType:
				for _, f := range x.Params.List {
					for _, id := range f.Names {
						declare(id, f.Type)
					}
				}
			case *ast.AssignStmt:
				assigns = append(assigns, x)
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && x.Tok == token.DEFINE && i < len(x.Rhs) {
						declare(id, x.Rhs[i])
					}
				}
			}
			return true
		})
		for _, as := range assigns {
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						for _, key := range vars[id.Name] {
							set(key, sel.Sel.Name)
						}
					}
				}
			}
		}
	}
}

// TestOptionFieldsAreSet fails when an exported field of an exported
// *Options, *Config or *Params struct of a library package is set by
// no non-test file outside its own package: a setting that no caller
// changes is a constant. Commands, examples and the benchmark count as
// setters. It also fails on an allowlist entry that names no field, or
// a field that has a setter.
func TestOptionFieldsAreSet(t *testing.T) {
	files := parseRepo(t, token.NewFileSet())
	fields := optionFields(files)
	markSetters(t, files, fields)

	var unset []string
	for key, ok := range fields {
		if !ok && optionAllowlist[key] == "" {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is set by no non-test file outside its package: make it a constant", key)
	}
	for key := range optionAllowlist {
		if ok, found := fields[key]; !found || ok {
			t.Errorf("option allowlist entry %s names no field without a setter: remove it", key)
		}
	}
}
