package lint

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"freepdm/internal/core"
)

// TestPoisonKeyValueInSync pins the analyzer's spelled-out poison-key
// value to the real constant: the poison-propagation check matches by
// value, so the two must never drift.
func TestPoisonKeyValueInSync(t *testing.T) {
	if poisonKeyValue != core.PoisonKey {
		t.Fatalf("lint.poisonKeyValue = %q, core.PoisonKey = %q", poisonKeyValue, core.PoisonKey)
	}
}

// TestFlowChecksSelectable verifies the flow-graph checks honor the
// enabled set independently: flowdeadlock is full of findings, but a
// poison-propagation-only run must stay silent on it, and a
// tuple-deadlock-only run must report nothing but tuple-deadlock.
func TestFlowChecksSelectable(t *testing.T) {
	loader := testLoader(t)
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "flowdeadlock"))
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run(pkgs, map[string]bool{CheckPoison: true}); len(fs) != 0 {
		t.Errorf("poison-only run reported %d findings: %v", len(fs), fs)
	}
	fs := Run(pkgs, map[string]bool{CheckDeadlock: true})
	if len(fs) == 0 {
		t.Fatal("deadlock-only run reported nothing on flowdeadlock")
	}
	for _, f := range fs {
		if f.Check != CheckDeadlock {
			t.Errorf("deadlock-only run reported %s: %s", f.Check, f.Msg)
		}
	}
}

// TestRunAllMarksSuppressed verifies RunAll keeps directive-covered
// findings, marked, while Run drops them — the contract the -json
// output mode depends on.
func TestRunAllMarksSuppressed(t *testing.T) {
	loader := testLoader(t)
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "suppressed"))
	if err != nil {
		t.Fatal(err)
	}
	all := RunAll(pkgs, nil)
	var suppressed int
	for _, f := range all {
		if f.Suppressed {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Fatal("RunAll marked nothing suppressed in the suppressed fixture")
	}
	if got := len(Run(pkgs, nil)); got != len(all)-suppressed {
		t.Errorf("Run returned %d findings, want %d (RunAll %d minus %d suppressed)",
			got, len(all)-suppressed, len(all), suppressed)
	}
}

// TestDOTDeterministic renders the core protocol's flow graph twice
// and asserts byte equality plus the structural landmarks DESIGN.md's
// embedded graph relies on: the task fan-out from the PLED/PLET
// masters to their workers — for PLED the five-field task, produced by
// every level, the seed included, in levelTasks and by the poison in
// RunPLED; for PLET the bundle task, which taskTuples makes of what deal
// dealt for the seed and for every spill (deal itself builds no tuple,
// so it is not a node), and the poison bundle in RunPLET — and the bold
// (blocking) result and ctl edges back.
func TestDOTDeterministic(t *testing.T) {
	loader := testLoader(t)
	pkgs, err := loader.Load(filepath.Join("..", "core"))
	if err != nil {
		t.Fatal(err)
	}
	a := DOT(pkgs)
	b := DOT(pkgs)
	if !bytes.Equal(a, b) {
		t.Fatal("DOT output differs across runs")
	}
	out := string(a)
	for _, want := range []string{
		"digraph tupleflow",
		`label="freepdm/internal/core"`,
		`"freepdm/internal/core.RunPLED" -> "freepdm/internal/core.PLEDWorker" [label="task", style=bold]`,
		`"freepdm/internal/core.levelTasks" -> "freepdm/internal/core.PLEDWorker" [label="task", style=bold]`,
		`"freepdm/internal/core.PLEDWorker" -> "freepdm/internal/core.RunPLED" [label="result", style=bold]`,
		`"freepdm/internal/core.RunPLET" -> "freepdm/internal/core.PLETWorker" [label="task", style=bold]`,
		`"freepdm/internal/core.taskTuples" -> "freepdm/internal/core.PLETWorker" [label="task", style=bold]`,
		`"freepdm/internal/core.PLETWorker" -> "freepdm/internal/core.RunPLET" [label="ctl", style=bold]`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestFindingsOrderStable shuffles nothing — it simply runs the
// analyzer twice over a findings-rich fixture and asserts identical
// rendered output, pinning the stable file:line:col:check:message
// sort that keeps golden diffs deterministic across map-iteration
// order.
func TestFindingsOrderStable(t *testing.T) {
	loader := testLoader(t)
	pkgs, err := loader.Load(filepath.Join("testdata", "src", "contractbad"))
	if err != nil {
		t.Fatal(err)
	}
	first := renderFindings(Run(pkgs, nil))
	for i := 0; i < 5; i++ {
		if got := renderFindings(Run(pkgs, nil)); !bytes.Equal(got, first) {
			t.Fatalf("run %d ordered findings differently:\n%s\nvs\n%s", i, got, first)
		}
	}
}
