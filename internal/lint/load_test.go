package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a synthetic module under a temp dir:
// files maps slash-relative paths to contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExpandEdgeCases drives ./... pattern expansion over synthetic
// trees: nested testdata/vendor/hidden directories must be pruned at
// any depth, Go-file-less directories skipped, and a non-recursive
// pattern naming an empty directory must error.
func TestExpandEdgeCases(t *testing.T) {
	for _, tt := range []struct {
		name     string
		files    map[string]string
		patterns []string
		want     []string // slash-relative dirs expected, "" = module root
		wantErr  string
	}{
		{
			name: "nested testdata pruned at every depth",
			files: map[string]string{
				"go.mod":                      "module m\n",
				"a/a.go":                      "package a\n",
				"a/testdata/fix/fix.go":       "package fix\n",
				"a/b/b.go":                    "package b\n",
				"a/b/testdata/deep/nested.go": "package nested\n",
				"testdata/top/top.go":         "package top\n",
				"vendor/v/v.go":               "package v\n",
				".hidden/h/h.go":              "package h\n",
				"_underscore/u.go":            "package u\n",
				"a/b/c/nogo.txt":              "not go\n",
				"a/b/c/d/d.go":                "package d\n",
				"docsonly/readme.txt":         "prose\n",
			},
			patterns: []string{"./..."},
			want:     []string{"a", "a/b", "a/b/c/d"},
		},
		{
			name: "single dir without Go files errors",
			files: map[string]string{
				"go.mod":      "module m\n",
				"empty/x.txt": "no go here\n",
			},
			patterns: []string{"./empty"},
			wantErr:  "no Go files",
		},
		{
			name: "recursive pattern over empty subtree finds nothing",
			files: map[string]string{
				"go.mod":      "module m\n",
				"p/p.go":      "package p\n",
				"empty/x.txt": "no go here\n",
			},
			patterns: []string{"./empty/..."},
			want:     nil,
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			root := writeTree(t, tt.files)
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			dirs, err := l.Expand(root, tt.patterns)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("Expand error = %v, want containing %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range dirs {
				rel, err := filepath.Rel(root, d)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, filepath.ToSlash(rel))
			}
			if len(got) != len(tt.want) {
				t.Fatalf("Expand = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Expand = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// TestLoadReportsTypeErrors feeds the loader packages that fail to
// compile: the loader must surface a diagnostic error — never panic —
// whether the break is in the target package or in one of its
// dependencies.
func TestLoadReportsTypeErrors(t *testing.T) {
	for _, tt := range []struct {
		name    string
		files   map[string]string
		load    string
		wantErr string
	}{
		{
			name: "undeclared identifier in the target",
			files: map[string]string{
				"go.mod":   "module m\n",
				"bad/f.go": "package bad\n\nfunc F() int { return undeclared }\n",
			},
			load:    "bad",
			wantErr: "type-checking",
		},
		{
			name: "syntax error in the target",
			files: map[string]string{
				"go.mod":   "module m\n",
				"bad/f.go": "package bad\n\nfunc F() int {\n",
			},
			load:    "bad",
			wantErr: "expected",
		},
		{
			name: "broken module-internal dependency",
			files: map[string]string{
				"go.mod":   "module m\n",
				"top/t.go": "package top\n\nimport \"m/dep\"\n\nvar X = dep.Broken\n",
				"dep/d.go": "package dep\n\nvar Broken undefinedType\n",
			},
			load:    "top",
			wantErr: "m/dep",
		},
		{
			name: "dependency directory without Go files",
			files: map[string]string{
				"go.mod":     "module m\n",
				"top/t.go":   "package top\n\nimport \"m/none\"\n\nvar X = none.X\n",
				"none/x.txt": "no go\n",
			},
			load:    "top",
			wantErr: "m/none",
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			root := writeTree(t, tt.files)
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			_, err = l.Load(filepath.Join(root, tt.load))
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Load(%s) error = %v, want containing %q", tt.load, err, tt.wantErr)
			}
		})
	}
}

// TestLoadImportCycleGuard builds a two-package import cycle: the
// dep-cache slot reservation must convert the infinite recursion into
// a reported cycle error.
func TestLoadImportCycleGuard(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module m\n",
		"x/x.go": "package x\n\nimport \"m/y\"\n\nvar X = y.Y\n",
		"y/y.go": "package y\n\nimport \"m/x\"\n\nvar Y = x.X\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load(filepath.Join(root, "x"))
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("Load of a cyclic package = %v, want an import cycle error", err)
	}
}

// TestLoadExternalTestSeesExportTest loads a directory whose external
// test package relies on the export_test.go idiom and, in the same
// file, on a second package that imports the primary one and on a
// third that the primary imports. As in go's test build, all of them
// must agree on one copy of every package: the external test sees the
// primary's test-only export, the importer is checked against that
// variant, and the shared dependency keeps its identity.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":           "module m\n",
		"base/base.go":     "package base\n\ntype Opt struct{ N int }\n",
		"a/a.go":           "package a\n\nimport \"m/base\"\n\ntype T struct{ O base.Opt }\n\nfunc hidden(o base.Opt) T { return T{o} }\n",
		"a/export_test.go": "package a\n\nvar Hidden = hidden\n",
		"user/user.go":     "package user\n\nimport \"m/a\"\n\nfunc Use(t a.T) int { return t.O.N }\n",
		"a/x_test.go":      "package a_test\n\nimport (\n\t\"m/a\"\n\t\"m/base\"\n\t\"m/user\"\n)\n\nvar N = user.Use(a.Hidden(base.Opt{N: 1}))\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// user is in the dep cache, checked against a without its tests,
	// before a's directory is loaded: the stale copy must not be reused.
	if _, err := l.Load(filepath.Join(root, "user")); err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(root, "a"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 || pkgs[1].Path != "m/a_test" {
		t.Fatalf("Load returned %d packages, want m/a and m/a_test", len(pkgs))
	}
}
