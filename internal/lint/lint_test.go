package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		fmt.Fprintln(&buf, f)
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
			pkg, err := loader.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := renderFindings(Run([]*Package{pkg}))
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

// TestCoreContractClean is the regression test for the control-tuple
// audit: the production protocol in internal/core — PLET's two-field
// "task" and six-field "ctl", PLED's five-field "task" and "result",
// and the poison contracts, spelled with the tags.go constants — must
// stay finding-free. The contractok and contractbad fixtures hold the
// same "ctl" and PLED shapes matched and mismatched.
func TestCoreContractClean(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.Load(filepath.Join("..", "core"))
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run([]*Package{pkg}); len(fs) != 0 {
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

// TestRunAllMarksSuppressed verifies RunAll keeps directive-covered
// findings, marked, while Run drops them — the contract the -json
// output mode depends on — and that stale directives are reported,
// never suppressed.
func TestRunAllMarksSuppressed(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.Load(filepath.Join("testdata", "src", "suppressed"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*Package{pkg}
	all := RunAll(pkgs)
	var suppressed, stale int
	for _, f := range all {
		if f.Suppressed {
			suppressed++
			if f.Check == CheckDirective {
				t.Errorf("a stale-directive finding was suppressed: %s", f)
			}
		}
		if f.Check == CheckDirective {
			stale++
		}
	}
	if suppressed == 0 {
		t.Fatal("RunAll marked nothing suppressed in the suppressed fixture")
	}
	if stale == 0 {
		t.Fatal("RunAll reported no stale directive in the suppressed fixture")
	}
	if got := len(Run(pkgs)); got != len(all)-suppressed {
		t.Errorf("Run returned %d findings, want %d (RunAll %d minus %d suppressed)",
			got, len(all)-suppressed, len(all), suppressed)
	}
}

// TestFindingsOrderStable runs the analyzer repeatedly over a
// findings-rich fixture that mixes all three checks and asserts
// identical rendered output, pinning the stable
// file:line:col:check:message sort that keeps golden diffs
// deterministic across map-iteration order.
func TestFindingsOrderStable(t *testing.T) {
	loader := testLoader(t)
	var pkgs []*Package
	for _, fixture := range []string{"contractbad", "errdrop", "lockblock"} {
		pkg, err := loader.Load(filepath.Join("testdata", "src", fixture))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	first := renderFindings(Run(pkgs))
	checks := make(map[string]bool)
	for _, f := range Run(pkgs) {
		checks[f.Check] = true
	}
	for _, c := range AllChecks {
		if !checks[c] {
			t.Errorf("the fixtures produce no %s finding", c)
		}
	}
	for i := 0; i < 5; i++ {
		if got := renderFindings(Run(pkgs)); !bytes.Equal(got, first) {
			t.Fatalf("run %d ordered findings differently:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// Run is RunAll without the suppressed findings: what the golden
// fixtures record.
func Run(pkgs []*Package) []Finding {
	return slices.DeleteFunc(RunAll(pkgs), func(f Finding) bool { return f.Suppressed })
}
