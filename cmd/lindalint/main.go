// Lindalint statically checks the tuple-space protocol contracts of
// this module's production code: it loads packages through go/types,
// without their test files, and runs three checks — every Out has a
// matching In and the reverse (tuple-contract), no tuple-op error is
// discarded (tuple-errcheck), and no blocking In/Rd is reachable while
// a sync lock is held (lock-blocking). A lint:ignore directive that
// names no check or suppresses nothing is itself reported
// (stale-directive). See README.md ("Static analysis") for the check
// catalogue and the suppression syntax.
//
// Usage:
//
//	lindalint [-json] [packages]
//
// Packages are directory patterns relative to the current directory
// ("./..." by default, recursing like the go tool). -json emits one
// diagnostic object per line (file, line, col, check, message,
// suppressed — suppressed findings are included, marked) instead of
// text. The exit status is 0 when the tree is clean, 1 when findings
// are reported, and 2 when loading or type-checking fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"freepdm/internal/lint"
)

// diagnostic is the -json wire shape, one object per line.
type diagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	jsonFlag := flag.Bool("json", false, "emit one JSON diagnostic per line, including suppressed findings (marked)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	dirs, err := loader.Expand(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	pkgs := make([]*lint.Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = loader.Load(dir); err != nil {
			fatal(err)
		}
	}

	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	enc := json.NewEncoder(os.Stdout)
	reported := 0
	for _, f := range lint.RunAll(pkgs) {
		f.Pos.Filename = rel(f.Pos.Filename)
		switch {
		case *jsonFlag:
			d := diagnostic{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg, f.Suppressed}
			if err := enc.Encode(d); err != nil {
				fatal(err)
			}
		case !f.Suppressed:
			fmt.Println(f)
		}
		if !f.Suppressed {
			reported++
		}
	}
	if reported > 0 {
		fmt.Fprintf(os.Stderr, "lindalint: %d finding(s) in %d package(s)\n", reported, len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lindalint:", err)
	os.Exit(2)
}
