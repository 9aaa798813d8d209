package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// newTestLoader builds one loader per test binary; sharing it across
// fixtures means tuplespace/plinda/stdlib dependencies type-check once.
var sharedLoader *Loader

func testLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// renderFindings prints findings the way cmd/lindalint does, with the
// directory stripped so goldens are stable across checkouts.
func renderFindings(fs []Finding) []byte {
	var buf bytes.Buffer
	for _, f := range fs {
		fmt.Fprintf(&buf, "%s:%d: [%s] %s\n", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check, f.Msg)
	}
	return buf.Bytes()
}

// TestGoldenFixtures runs every check over each fixture package under
// testdata/src and compares the rendered findings against the
// findings.golden file beside it. Run with -update to regenerate.
func TestGoldenFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := testLoader(t)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			pkgs, err := loader.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := renderFindings(Run(pkgs, nil))
			golden := filepath.Join(dir, "findings.golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run go test ./internal/lint -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("findings differ from %s (re-run with -update after intended changes)\ngot:\n%swant:\n%s", golden, got, want)
			}
		})
	}
}

// TestCheckSelection verifies that the enabled set restricts which
// checks run: the contractbad fixture is full of contract findings but
// must stay silent when only tuple-errcheck is on.
func TestCheckSelection(t *testing.T) {
	loader := testLoader(t)
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "contractbad"))
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run(pkgs, map[string]bool{CheckErr: true}); len(fs) != 0 {
		t.Errorf("errcheck-only run reported %d findings: %v", len(fs), fs)
	}
	if fs := Run(pkgs, map[string]bool{CheckContract: true}); len(fs) == 0 {
		t.Error("contract-only run reported nothing on contractbad")
	}
}

// TestCoreContractClean is the regression test for the control-tuple
// audit: the production protocol in internal/core — PLET's two-field
// "task" and six-field "ctl", PLED's five-field "task" and "result",
// and the poison contracts, spelled with the tags.go constants — must
// stay finding-free. The contractok and contractbad fixtures hold the
// same "ctl" and PLED shapes matched and mismatched.
func TestCoreContractClean(t *testing.T) {
	loader := testLoader(t)
	pkgs, err := loader.Load(filepath.Join("..", "core"))
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run(pkgs, nil); len(fs) != 0 {
		t.Errorf("internal/core has %d findings:\n%s", len(fs), renderFindings(fs))
	}
}

// TestExpandSkipsTestdata guards the property the fixtures depend on:
// pattern expansion never descends into testdata (or hidden/vendor)
// directories, so the deliberately broken packages stay out of
// lindalint ./... runs.
func TestExpandSkipsTestdata(t *testing.T) {
	loader := testLoader(t)
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand(here, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand descended into %s", d)
		}
		if d == here {
			found = true
		}
	}
	if !found {
		t.Errorf("Expand missed the package directory itself: %v", dirs)
	}
}

func TestParseModulePath(t *testing.T) {
	for _, tt := range []struct {
		gomod, want string
	}{
		{"module freepdm\n\ngo 1.22\n", "freepdm"},
		{"// comment\nmodule \"quoted/path\"\n", "quoted/path"},
		{"go 1.22\n", ""},
	} {
		if got := parseModulePath(tt.gomod); got != tt.want {
			t.Errorf("parseModulePath(%q) = %q, want %q", tt.gomod, got, tt.want)
		}
	}
}
