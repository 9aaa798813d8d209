package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Check names. Each is documented in README.md ("Static analysis")
// and implemented in contract.go / checks.go.
const (
	CheckContract = "tuple-contract" // producer/consumer signature cross-reference
	CheckErr      = "tuple-errcheck" // discarded tuple-op error result
	CheckLock     = "lock-blocking"  // blocking In/Rd reachable while a sync lock is held

	// CheckDirective reports a stale lint:ignore directive: one that
	// names no check in AllChecks, or one whose check suppresses no
	// finding. No directive can suppress it.
	CheckDirective = "stale-directive"
)

// AllChecks lists every check a lint:ignore directive may name.
var AllChecks = []string{CheckContract, CheckErr, CheckLock}

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

// RunAll analyzes the packages and returns every finding, sorted by
// position. A finding silenced by a "// lint:ignore check-name reason"
// comment on the same or the preceding line, or a tuple-errcheck
// finding on a line carrying a "//nolint:errcheck" comment, is returned
// marked Suppressed, so callers (the -json output mode) can show what a
// directive silenced. Each package is analyzed in isolation: a "task"
// tuple in one program has no relation to a "task" tuple in another.
func RunAll(pkgs []*Package) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		a := newAnalysis(pkg)
		fs := a.checkContract()
		fs = append(fs, a.checkErrors()...)
		fs = append(fs, a.checkLockBlocking()...)
		all = append(all, a.suppress(fs)...)
	}
	sortFindings(all)
	return all
}

// sortFindings orders findings stably by file, line, column, check
// name and message, so output and golden-fixture diffs are
// deterministic regardless of the discovery (map-iteration) order the
// checks produced them in.
func sortFindings(fs []Finding) {
	slices.SortStableFunc(fs, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Check, b.Check),
			cmp.Compare(a.Msg, b.Msg),
		)
	})
}

// directive is one suppression comment of a file.
type directive struct {
	pos    token.Position
	checks []string        // the checks it names
	used   map[string]bool // the named checks that suppressed a finding
	nolint bool            // //nolint:errcheck, which is never stale
}

// suppress marks the findings a directive covers — one on the same or
// the preceding line that names the finding's check — and appends a
// stale-directive finding for every check a lint:ignore names that is
// not in AllChecks or suppressed nothing.
func (a *analysis) suppress(fs []Finding) []Finding {
	type lineKey struct {
		file string
		line int
	}
	at := make(map[lineKey][]*directive)
	for _, d := range a.directives {
		k := lineKey{d.pos.Filename, d.pos.Line}
		at[k] = append(at[k], d)
	}
	for i, f := range fs {
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, d := range at[lineKey{f.Pos.Filename, line}] {
				if slices.Contains(d.checks, f.Check) {
					d.used[f.Check] = true
					fs[i].Suppressed = true
				}
			}
		}
	}
	for _, d := range a.directives {
		if d.nolint {
			continue
		}
		for _, c := range d.checks {
			msg := ""
			switch {
			case !slices.Contains(AllChecks, c):
				msg = fmt.Sprintf("lint:ignore names %q, which is not a check (have %s)", c, strings.Join(AllChecks, ", "))
			case !d.used[c]:
				msg = fmt.Sprintf("lint:ignore %s suppresses no finding", c)
			default:
				continue
			}
			fs = append(fs, Finding{Pos: d.pos, Check: CheckDirective, Msg: msg})
		}
	}
	return fs
}

// collectDirectives scans a file's comments for suppression
// directives:
//
//	// lint:ignore check-name reason
//	// lint:ignore check-a,check-b reason
//	//nolint:errcheck
//
// A directive is a comment that starts with one of these. An ignore
// directive requires a non-empty reason and suppresses the named
// checks on its own line and the next; without a reason it is no
// directive at all. nolint:errcheck (the pre-existing convention in
// this repository, shared with other linters) suppresses
// tuple-errcheck only.
func collectDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var ds []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			d := &directive{pos: fset.Position(c.Pos()), used: make(map[string]bool)}
			if strings.HasPrefix(text, "nolint:") && strings.Contains(text, "errcheck") {
				d.checks, d.nolint = []string{CheckErr}, true
				ds = append(ds, d)
				continue
			}
			rest, ok := strings.CutPrefix(text, "lint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue // a reason is required; an unexplained directive does not suppress
			}
			for _, name := range strings.Split(fields[0], ",") {
				if name != "" {
					d.checks = append(d.checks, name)
				}
			}
			ds = append(ds, d)
		}
	}
	return ds
}
