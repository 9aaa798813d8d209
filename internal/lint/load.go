// Package lint implements lindalint, a static-analysis suite that
// proves tuple-space protocol invariants at build time. Linda's
// generative communication is dynamically typed: Out("task", key) and
// In("task", &key) agree only by convention, so a tag typo, arity
// drift, or field-type mismatch between a master and its workers
// compiles cleanly and deadlocks at runtime. lindalint loads the
// module's production code (test files are out of scope) through
// go/types and cross-references every producer and consumer call site
// of each package instead, so those contracts are machine-checked. It
// also flags discarded tuple-op errors and blocking takes under a
// sync lock.
//
// The suite is built from the standard library only (go/parser,
// go/ast, go/types, go/importer): module-internal import paths are
// resolved against the module root and type-checked from source, and
// everything else (the standard library) goes through the source
// importer. See checks.go and contract.go for the checks themselves
// and lint.go for the driver surface.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one type-checked package of the module, ready for
// analysis. Test files are not part of it: lindalint checks production
// code only.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module from source.
// It implements types.ImporterFrom: module-internal import paths are
// loaded (and memoized) from the module tree, all other paths fall
// back to the standard library's source importer. A Loader is not
// safe for concurrent use.
type Loader struct {
	Fset    *token.FileSet
	ModPath string // module path from go.mod
	ModRoot string // directory containing go.mod

	std  types.ImporterFrom
	pkgs map[string]*loaded
}

type loaded struct {
	pkg *Package
	err error
}

// NewLoader locates the enclosing module of dir and returns a loader
// rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: root,
		std:     std,
		pkgs:    make(map[string]*loaded),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and reports its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := parseModulePath(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("lint: no module line in %s", filepath.Join(d, "go.mod"))
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// parseModulePath extracts the module path from go.mod contents.
func parseModulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest
			}
		}
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked from the module tree, everything else from GOROOT
// source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks a module package, memoized per import
// path: a package is checked once whether it is analyzed, imported,
// or both.
func (l *Loader) load(path string) (*Package, error) {
	if r, ok := l.pkgs[path]; ok {
		return r.pkg, r.err
	}
	// Reserve the slot first so import cycles fail fast instead of
	// recursing forever.
	l.pkgs[path] = &loaded{err: fmt.Errorf("lint: import cycle through %s", path)}
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath)))
	pkg, err := l.check(path, dir)
	l.pkgs[path] = &loaded{pkg: pkg, err: err}
	return pkg, err
}

// parseDir parses the non-test .go files of one directory.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// isSourceFile reports whether name is a non-test Go file the go tool
// would build.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package in dir, without its test
// files.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

// check type-checks the package in dir with full analysis info.
func (l *Loader) check(path, dir string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// Expand resolves package patterns to directories. A pattern ending
// in "/..." walks the tree below its base; other patterns name one
// directory. Patterns are interpreted relative to base. Directories
// named testdata or vendor and hidden directories are skipped, as are
// directories without non-test Go files.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if pat == "..." {
			pat, rec = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, rec = strings.TrimSuffix(pat, "/..."), true
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, root)
		}
		root = filepath.Clean(root)
		if !rec {
			ok, err := hasGoFiles(root)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("lint: no Go files in %s", root)
			}
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(p)
			if err != nil {
				return err
			}
			if ok {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go source file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}
