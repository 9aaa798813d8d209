package freepdm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references are checked.
var docFiles = []string{"README.md", "DESIGN.md"}

var (
	// spanRE is one inline code span.
	spanRE = regexp.MustCompile("`([^`\n]+)`")
	// pathRE is a relative path of two or more elements, with an
	// optional :line or :line-line suffix.
	pathRE = regexp.MustCompile(`^([\w.\-]+(?:/[\w.\-]+)+)/?(?::\d+(?:[-–]\d+)?)?$`)
	// fileRE is a bare file name with one of the repository's extensions.
	fileRE = regexp.MustCompile(`^([\w.\-]+\.(?:go|md|json|sh|yml|mod|txt|dot))(?::\d+(?:[-–]\d+)?)?$`)
	// identRE is a pkg.Ident reference; a trailing "(" marks a call.
	identRE = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(\()?`)
)

// repoIndex is what the documents may name: every file and directory
// of the repository, and the top-level identifiers each package
// declares, keyed by package name and by directory.
type repoIndex struct {
	paths map[string]bool            // slash-separated, relative to the root
	bases map[string]bool            // file base names
	decls map[string]map[string]bool // package name or directory -> identifiers
}

func indexRepo(t *testing.T) *repoIndex {
	t.Helper()
	ix := &repoIndex{paths: map[string]bool{}, bases: map[string]bool{}, decls: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
			return filepath.SkipDir // .git and build output
		}
		ix.paths[filepath.ToSlash(path)] = true
		ix.bases[d.Name()] = true
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		keys := []string{dir}
		if name := strings.TrimSuffix(f.Name.Name, "_test"); name != "main" {
			keys = append(keys, name)
		}
		for _, decl := range f.Decls {
			for _, name := range declNames(decl) {
				for _, k := range keys {
					if ix.decls[k] == nil {
						ix.decls[k] = map[string]bool{}
					}
					ix.decls[k][name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// declNames lists the top-level names a declaration introduces; methods
// are not package-level names.
func declNames(decl ast.Decl) []string {
	var names []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names = append(names, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

// checkSpan returns what is stale in one code span, if anything.
func (ix *repoIndex) checkSpan(span string) []string {
	var stale []string
	if strings.Contains(span, "...") {
		return nil // a package pattern, such as ./internal/...
	}
	if m := pathRE.FindStringSubmatch(span); m != nil && ix.paths[strings.SplitN(m[1], "/", 2)[0]] {
		if !ix.paths[m[1]] && !ix.declaredAt(m[1]) {
			stale = append(stale, "path "+m[1]+" does not exist")
		}
		return stale
	}
	if m := fileRE.FindStringSubmatch(span); m != nil {
		if !ix.bases[m[1]] {
			stale = append(stale, "no file is named "+m[1])
		}
		return stale
	}
	for _, m := range identRE.FindAllStringSubmatch(span, -1) {
		pkg, ident, call := m[1], m[2], m[3] != ""
		decls, ok := ix.decls[pkg]
		if !ok || !(call || ast.IsExported(ident)) {
			continue // not an in-repo package, or a metric or field name
		}
		if !decls[ident] {
			stale = append(stale, "package "+pkg+" declares no "+ident)
		}
	}
	return stale
}

// declaredAt reports whether p is dir.Ident (dir.Ident.More) for a
// package directory dir that declares Ident: internal/lint.TestX names
// a test.
func (ix *repoIndex) declaredAt(p string) bool {
	i := strings.LastIndex(p, "/")
	dir, rest, ok := strings.Cut(p[i+1:], ".")
	if !ok {
		return false
	}
	ident, _, _ := strings.Cut(rest, ".")
	return ix.decls[p[:i+1]+dir][ident]
}

// TestDocsReferences fails when README.md or DESIGN.md names, in
// backticks, a pkg.Ident of an in-repo package that no file of the
// package declares, or a repository path or file that does not exist.
// Fenced code blocks are commands and output, and are not read.
func TestDocsReferences(t *testing.T) {
	ix := indexRepo(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range spanRE.FindAllStringSubmatch(line, -1) {
				for _, s := range ix.checkSpan(strings.TrimSpace(m[1])) {
					t.Errorf("%s:%d: `%s`: %s", doc, n+1, m[1], s)
				}
			}
		}
	}
}
