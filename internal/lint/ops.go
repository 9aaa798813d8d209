package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Import paths of the packages whose methods form the Linda surface.
// The analyzer matches receivers by type identity (package path +
// type name), so aliasing or embedding does not confuse it.
const (
	tuplespacePath = "freepdm/internal/tuplespace"
	plindaPath     = "freepdm/internal/plinda"
	faultnetPath   = "freepdm/internal/faultnet"
)

// opInfo describes one tuple-space operation method. Every one of
// them returns an error as its last result.
type opInfo struct {
	blocking bool // In/Rd/InTraced: blocks until a match arrives
	producer bool // Out
	consumer bool // In/Inp/Rd/Rdp and traced variants: takes a template
	ctxFirst bool // first argument is not a field (Store v2 ctx, or the
	// store itself for the package-level non-ctx wrappers); set per call
	// site by tupleOpCall, since Proc keeps the non-ctx spelling while
	// every Store/Txn method is ctx-first
}

// tupleOps names the Linda operations with their tuple semantics. Since
// Store v2 the same names serve both surfaces: ctx-first on
// Store/Txn/Client/Space (and any implementer), plain fields-only on
// plinda.Proc and the tuplespace package-level convenience wrappers.
var tupleOps = map[string]opInfo{
	"Out":  {producer: true},
	"OutN": {},
	"In":   {blocking: true, consumer: true},
	"Rd":   {blocking: true, consumer: true},
	"Inp":  {consumer: true},
	"Rdp":  {consumer: true},
	// The traced variants: same tuple semantics as their plain
	// counterparts, analyzed identically.
	"InTraced":  {blocking: true, consumer: true},
	"InpTraced": {consumer: true},
}

// opCall is one resolved tuple-op call site.
type opCall struct {
	call *ast.CallExpr
	name string // method name
	recv string // "Space", "Client", "Store", "Txn", or "Proc"
	info opInfo
}

// templateArgs is the slice of arguments that are tuple fields: all of
// them, except that ctx-first ops (every Store v2 method) carry the
// context — or, for the package-level wrappers, the store — as
// argument zero ahead of the template.
func (c *opCall) templateArgs() []ast.Expr {
	if c.info.ctxFirst && len(c.call.Args) > 0 {
		return c.call.Args[1:]
	}
	return c.call.Args
}

// analysis carries the per-package state shared by the checks.
type analysis struct {
	pkg        *Package
	fset       *token.FileSet
	ops        []*opCall
	lits       []*ast.CompositeLit         // tuplespace.Tuple composite literals
	formals    map[types.Object]types.Type // objects holding formal values; nil type = unknown formal
	directives []*directive
	storeIface *types.Interface // tuplespace.Store; nil when the package does not import it
}

// formalTypes maps the tuplespace.Formal* helper variables to the
// field type each one matches.
var formalTypes = map[string]types.Type{
	"FormalInt":     types.Typ[types.Int],
	"FormalInt64":   types.Typ[types.Int64],
	"FormalFloat":   types.Typ[types.Float64],
	"FormalString":  types.Typ[types.String],
	"FormalBool":    types.Typ[types.Bool],
	"FormalBytes":   types.NewSlice(types.Typ[types.Uint8]),
	"FormalInts":    types.NewSlice(types.Typ[types.Int]),
	"FormalFloats":  types.NewSlice(types.Typ[types.Float64]),
	"FormalStrings": types.NewSlice(types.Typ[types.String]),
}

func newAnalysis(pkg *Package) *analysis {
	a := &analysis{
		pkg:        pkg,
		fset:       pkg.Fset,
		formals:    make(map[types.Object]types.Type),
		storeIface: storeInterface(pkg.Types),
	}
	for _, f := range pkg.Files {
		a.directives = append(a.directives, collectDirectives(a.fset, f)...)
	}
	a.collectFormalVars()
	a.collect()
	return a
}

// collectFormalVars records local and package-level variables whose
// initializer is a formal expression, so aliases like
// "formalTree := tuplespace.Formal((*classify.Tree)(nil))" resolve as
// formals at use sites. One level of aliasing is enough for every
// idiom in this repository.
func (a *analysis) collectFormalVars() {
	record := func(names []*ast.Ident, values []ast.Expr) {
		if len(names) != len(values) {
			return
		}
		for i, name := range names {
			if t, ok := a.formalType(values[i]); ok {
				if obj := a.pkg.Info.Defs[name]; obj != nil {
					a.formals[obj] = t
				}
			}
		}
	}
	for _, f := range a.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				record(n.Names, n.Values)
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					idents := make([]*ast.Ident, 0, len(n.Lhs))
					for _, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							return true
						}
						idents = append(idents, id)
					}
					record(idents, n.Rhs)
				}
			}
			return true
		})
	}
}

// formalType reports whether expr is a formal template field and, if
// so, the field type it matches. A nil type means "formal of unknown
// type" (e.g. Formal(x) where x is interface-typed), which unifies
// with anything.
func (a *analysis) formalType(expr ast.Expr) (types.Type, bool) {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := a.pkg.Info.Uses[e]; obj != nil {
			return a.formalObj(obj)
		}
	case *ast.SelectorExpr:
		if obj := a.pkg.Info.Uses[e.Sel]; obj != nil {
			return a.formalObj(obj)
		}
	case *ast.CallExpr:
		if fn := calleeFunc(a.pkg.Info, e); fn != nil &&
			fn.Name() == "Formal" && fn.Pkg() != nil && fn.Pkg().Path() == tuplespacePath {
			if len(e.Args) == 1 {
				return a.staticType(e.Args[0]), true
			}
			return nil, true
		}
	}
	return nil, false
}

func (a *analysis) formalObj(obj types.Object) (types.Type, bool) {
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == tuplespacePath {
		if t, ok := formalTypes[v.Name()]; ok {
			return t, true
		}
	}
	if t, ok := a.formals[obj]; ok {
		return t, true
	}
	return nil, false
}

// staticType is the concrete field type an expression contributes to
// a tuple, or nil when it cannot be known statically (interface-typed
// expressions, untyped nil).
func (a *analysis) staticType(expr ast.Expr) types.Type {
	tv, ok := a.pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	t := types.Default(tv.Type)
	if t == types.Typ[types.UntypedNil] || t == types.Typ[types.Invalid] {
		return nil
	}
	if types.IsInterface(t) {
		return nil
	}
	return t
}

// calleeFunc resolves the function or method object a call invokes.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// collect walks the package once, resolving tuple-op call sites and
// tuplespace.Tuple composite literals.
func (a *analysis) collect() {
	for _, f := range a.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if op := a.tupleOpCall(n); op != nil {
					a.ops = append(a.ops, op)
				}
			case *ast.CompositeLit:
				if a.isTupleLit(n) {
					a.lits = append(a.lits, n)
				}
			}
			return true
		})
	}
}

// tupleOpCall resolves a call to an Out/OutN/In/Inp/Rd/Rdp (or traced)
// operation of the Linda surface: the concrete tuplespace.Space and
// Client, the Store/TxnStore/Txn interfaces, plinda.Proc, the
// tuplespace package-level non-ctx wrappers — and, by method-set
// resolution, any other type that implements tuplespace.Store (the
// durable space, the cluster router, test doubles), so call sites
// through interface-typed variables are analyzed exactly like direct
// ones. Which argument the template starts at is decided here: every
// Store v2 method is ctx-first, the wrappers carry the store as
// argument zero, and Proc keeps the plain fields-only spelling.
func (a *analysis) tupleOpCall(call *ast.CallExpr) *opCall {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	info, ok := tupleOps[sel.Sel.Name]
	if !ok {
		return nil
	}
	fn, ok := a.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		// Package-level generic wrapper: tuplespace.Out(s, fields...).
		// The store occupies argument zero, so the template starts at
		// one — same arg shape as ctx-first.
		if fn.Pkg() == nil || fn.Pkg().Path() != tuplespacePath {
			return nil
		}
		info.ctxFirst = true
		return &opCall{call: call, name: sel.Sel.Name, recv: "Store", info: info}
	}
	named := namedOf(recv.Type())
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	pkgPath, typeName := named.Obj().Pkg().Path(), named.Obj().Name()
	if pkgPath == faultnetPath {
		// faultnet handles (the chaos proxy and the store middleware,
		// which does implement tuplespace.Store) are fault-injection
		// plumbing, not tuple protocol use: ops through them forward
		// verbatim and are analyzed where production code issues them.
		return nil
	}
	switch {
	case pkgPath == plindaPath && typeName == "Proc":
		// Proc's surface stays non-ctx: fields from argument zero.
	case pkgPath == tuplespacePath && typeName == "Txn", a.implementsStore(named):
		if pkgPath != tuplespacePath {
			typeName = "Store"
		}
		info.ctxFirst = true
	default:
		return nil
	}
	return &opCall{call: call, name: sel.Sel.Name, recv: typeName, info: info}
}

// implementsStore reports whether t (or *t) satisfies the
// tuplespace.Store interface.
func (a *analysis) implementsStore(t types.Type) bool {
	iface := a.storeIface
	return iface != nil && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface))
}

// storeInterface finds the tuplespace.Store interface among pkg and
// its transitive imports; nil when pkg does not depend on tuplespace.
func storeInterface(pkg *types.Package) *types.Interface {
	seen := make(map[*types.Package]bool)
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == tuplespacePath {
			obj, _ := p.Scope().Lookup("Store").(*types.TypeName)
			if obj == nil {
				return nil
			}
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
		for _, imp := range p.Imports() {
			if iface := find(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	return find(pkg)
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isTupleLit reports whether the composite literal builds a
// tuplespace.Tuple (directly, or as an implicitly typed element of a
// []tuplespace.Tuple literal). Tuple literals are treated as
// producers by the contract check: they exist to be passed to OutN
// or Restore.
func (a *analysis) isTupleLit(lit *ast.CompositeLit) bool {
	tv, ok := a.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named := namedOf(tv.Type)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == tuplespacePath && named.Obj().Name() == "Tuple"
}

// relPos renders a position referenced inside a message as
// "file.go:line", with the directory stripped: cross-references stay
// inside one package, so the base name is unambiguous and the output
// is stable across checkouts.
func (a *analysis) relPos(pos token.Pos) string {
	p := a.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
