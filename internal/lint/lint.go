package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Check names, in reporting order. Each is documented in README.md
// ("Static analysis") and implemented in contract.go / checks.go /
// deadlock.go.
const (
	CheckContract   = "tuple-contract" // producer/consumer signature cross-reference
	CheckFormal     = "formal-misuse"  // formal template field passed to Out / stored in a Tuple
	CheckCrossShard = "cross-shard"    // leading formal-string template: every Store rejects it
	CheckLock       = "lock-blocking"  // blocking In/Rd reachable while a sync lock is held
	CheckErr        = "tuple-errcheck" // discarded tuple-op error result

	// The whole-program checks built on the tuple-flow graph
	// (flowgraph.go, callgraph.go, deadlock.go).
	CheckDeadlock = "tuple-deadlock"     // blocking In/Rd with no reachable producer
	CheckLeak     = "tuple-leak"         // tag produced but never taken by any reachable consumer
	CheckPoison   = "poison-propagation" // unbounded worker receive loop ignores the poison key
)

// AllChecks lists every check name lindalint knows.
var AllChecks = []string{
	CheckContract, CheckFormal, CheckCrossShard, CheckLock, CheckErr,
	CheckDeadlock, CheckLeak, CheckPoison,
}

// Finding is one diagnostic, anchored to a source position.
type Finding struct {
	Pos        token.Position
	Check      string
	Msg        string
	Suppressed bool // covered by a lint:ignore / nolint directive
}

// String renders the finding in the canonical
// "file:line: [check-name] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Run analyzes the packages and returns the surviving findings,
// sorted by position. enabled selects the checks to run; nil enables
// all of them. Findings suppressed by a "// lint:ignore check-name
// reason" comment on the same or the preceding line are dropped, as
// are tuple-errcheck findings on lines carrying a "//nolint:errcheck"
// comment.
func Run(pkgs []*Package, enabled map[string]bool) []Finding {
	all := RunAll(pkgs, enabled)
	out := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: suppressed findings
// are returned too, marked, so callers (the -json output mode) can
// show what a directive silenced. The per-package checks
// (tuple-contract and friends) see each package in isolation; the
// flow-graph checks (tuple-deadlock, tuple-leak, poison-propagation)
// see the loaded package set as one program.
func RunAll(pkgs []*Package, enabled map[string]bool) []Finding {
	on := func(check string) bool { return enabled == nil || enabled[check] }
	analyses := make([]*analysis, len(pkgs))
	for i, pkg := range pkgs {
		analyses[i] = newAnalysis(pkg)
	}
	var all []Finding
	for _, a := range analyses {
		if on(CheckContract) {
			all = append(all, a.checkContract()...)
		}
		if on(CheckFormal) {
			all = append(all, a.checkFormalMisuse()...)
		}
		if on(CheckCrossShard) {
			all = append(all, a.checkCrossShard()...)
		}
		if on(CheckLock) {
			all = append(all, a.checkLockBlocking()...)
		}
		if on(CheckErr) {
			all = append(all, a.checkErrors()...)
		}
	}
	if on(CheckDeadlock) || on(CheckLeak) || on(CheckPoison) {
		cg := buildCallGraph(pkgs)
		g := buildFlowGraph(analyses, cg)
		if on(CheckDeadlock) {
			all = append(all, g.checkDeadlock()...)
		}
		if on(CheckLeak) {
			all = append(all, g.checkLeak()...)
		}
		if on(CheckPoison) {
			all = append(all, checkPoison(analyses, cg)...)
		}
	}
	markSuppressed(analyses, all)
	sortFindings(all)
	return dedup(all)
}

// sortFindings orders findings stably by file, line, column, check
// name and message, so output and golden-fixture diffs are
// deterministic regardless of the discovery (map-iteration) order the
// checks produced them in.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

func dedup(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// markSuppressed flags the findings covered by an ignore directive.
// Directives are matched by filename across the whole analysis set,
// so a directive suppresses flow-graph findings anchored in its file
// no matter which package's walk produced them.
func markSuppressed(analyses []*analysis, fs []Finding) {
	byFile := make(map[string]fileIgnores)
	for _, a := range analyses {
		for name, dirs := range a.ignores {
			byFile[name] = dirs
		}
	}
	for i, f := range fs {
		dirs := byFile[f.Pos.Filename]
		if dirs == nil {
			continue
		}
		if dirs.covers(f.Pos.Line, f.Check) || dirs.covers(f.Pos.Line-1, f.Check) {
			fs[i].Suppressed = true
		}
	}
}

// fileIgnores records the ignore directives of one file by line.
type fileIgnores map[int][]string

func (fi fileIgnores) covers(line int, check string) bool {
	for _, name := range fi[line] {
		if name == check || name == "all" {
			return true
		}
	}
	return false
}

// collectIgnores scans a file's comments for suppression directives:
//
//	// lint:ignore check-name reason
//	// lint:ignore check-a,check-b reason
//	//nolint:errcheck
//
// A lint:ignore directive requires a non-empty reason and suppresses
// the named checks on its own line and the next. nolint:errcheck (the
// pre-existing convention in this repository) suppresses
// tuple-errcheck only.
func collectIgnores(fset *token.FileSet, f *ast.File) fileIgnores {
	fi := make(fileIgnores)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			line := fset.Position(c.Pos()).Line
			trimmed := strings.TrimSpace(text)
			if strings.HasPrefix(trimmed, "nolint:") && strings.Contains(trimmed, "errcheck") {
				fi[line] = append(fi[line], CheckErr)
			}
			idx := strings.Index(text, "lint:ignore")
			if idx < 0 {
				continue
			}
			rest := strings.TrimSpace(text[idx+len("lint:ignore"):])
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue // a reason is required; an unexplained directive does not suppress
			}
			for _, name := range strings.Split(fields[0], ",") {
				if name != "" {
					fi[line] = append(fi[line], name)
				}
			}
		}
	}
	return fi
}
