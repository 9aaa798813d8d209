package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkFormalMisuse flags formal template fields stored into the
// space: a Formal passed to Out (or placed in a tuplespace.Tuple
// literal) is stored as an opaque formal value that no sensible
// template will ever match — the producer almost certainly meant to
// pass a value. This is the tag-typo's quieter cousin: it compiles,
// and the consumer deadlocks.
func (a *analysis) checkFormalMisuse() []Finding {
	var fs []Finding
	flag := func(arg ast.Expr, where string) {
		if t, ok := a.formalType(arg); ok {
			name := "of unknown type"
			if t != nil {
				name = "?" + t.String()
			}
			fs = append(fs, Finding{
				Pos:   a.fset.Position(arg.Pos()),
				Check: CheckFormal,
				Msg:   fmt.Sprintf("formal %s %s: formals belong in In/Rd templates, not in stored tuples", name, where),
			})
		}
	}
	for _, op := range a.ops {
		if !op.info.producer || op.call.Ellipsis.IsValid() {
			continue
		}
		for _, arg := range op.templateArgs() {
			flag(arg, "passed to "+op.name)
		}
	}
	for _, lit := range a.lits {
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			flag(e, "stored in a Tuple literal")
		}
	}
	return fs
}

// checkCrossShard flags consumer templates whose leading field is a
// formal string. Such a template names no tag, so no partition, shard
// or cluster node is its home, and every Store rejects it at run time
// with tuplespace.ErrCrossTemplate; the check reports the error at
// build time. Lead with a constant tag.
func (a *analysis) checkCrossShard() []Finding {
	var fs []Finding
	for _, op := range a.ops {
		args := op.templateArgs()
		if !op.info.consumer || op.call.Ellipsis.IsValid() || len(args) == 0 {
			continue
		}
		t, ok := a.formalType(args[0])
		if !ok || t == nil || !types.Identical(t, types.Typ[types.String]) {
			continue
		}
		fs = append(fs, Finding{
			Pos:   a.fset.Position(op.call.Pos()),
			Check: CheckCrossShard,
			Msg:   fmt.Sprintf("%s template leads with a formal string: every Store rejects it with ErrCrossTemplate; lead with a constant tag", op.name),
		})
	}
	return fs
}

// checkLockBlocking flags a blocking In/Rd reachable while a
// sync.Mutex or sync.RWMutex is held in the same function body. A
// blocked tuple operation parks its goroutine until some other
// process produces a match; holding a lock across that wait is a
// deadlock waiting for contention. The walk is linear over each
// function body in source order — branch-insensitive, like a code
// review — and treats a deferred Unlock as held until return, which
// is exactly the dangerous pattern (mu.Lock(); defer mu.Unlock();
// space.In(...)).
func (a *analysis) checkLockBlocking() []Finding {
	var fs []Finding
	for _, f := range a.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fs = append(fs, a.lockWalk(n.Body)...)
				}
				return true
			case *ast.FuncLit:
				// Visited via lockWalk of the enclosing body boundary
				// below; each literal is its own scope.
				fs = append(fs, a.lockWalk(n.Body)...)
				return true
			}
			return true
		})
	}
	return fs
}

// lockWalk scans one function body (not descending into nested
// function literals, which run on their own goroutines or at least
// their own call frames).
func (a *analysis) lockWalk(body *ast.BlockStmt) []Finding {
	var fs []Finding
	held := make(map[string]ast.Expr) // receiver spelling -> Lock call site
	walk := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, analyzed on its own
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of
			// the body; any other deferred call is irrelevant here.
			return false
		case *ast.CallExpr:
			if name, recv, ok := a.syncLockCall(n); ok {
				switch name {
				case "Lock", "RLock":
					held[recv] = n
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				return true
			}
			if op := a.tupleOpCall(n); op != nil && op.info.blocking && len(held) > 0 {
				for recv, lock := range held {
					fs = append(fs, Finding{
						Pos:   a.fset.Position(n.Pos()),
						Check: CheckLock,
						Msg: fmt.Sprintf("blocking %s while %s is locked (Lock at %s): a parked tuple op under a lock deadlocks the processes that could unblock it",
							op.name, recv, a.relPos(lock.Pos())),
					})
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return fs
}

// syncLockCall resolves a call to sync.Mutex/RWMutex
// Lock/Unlock/RLock/RUnlock and returns the method name and the
// spelling of the receiver expression.
func (a *analysis) syncLockCall(call *ast.CallExpr) (name, recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := a.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return "", "", false
	}
	named := namedOf(r.Type())
	if named == nil || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	return sel.Sel.Name, types.ExprString(sel.X), true
}

// checkErrors flags tuple-op calls whose error result is discarded:
// used as an expression statement, assigned to the blank identifier,
// or launched via go/defer. In/Out errors carry ErrClosed, ErrKilled
// and wire failures; ignoring them turns a clean shutdown into a
// spin or a silent data loss. Test files are exempt — tests discard
// errors deliberately and assert on state instead.
func (a *analysis) checkErrors() []Finding {
	var fs []Finding
	flag := func(call *ast.CallExpr) {
		op := a.tupleOpCall(call)
		if op == nil || !op.returnsErr() {
			return
		}
		if a.inTestFile(call.Pos()) {
			return
		}
		fs = append(fs, Finding{
			Pos:   a.fset.Position(call.Pos()),
			Check: CheckErr,
			Msg:   fmt.Sprintf("error result of %s.%s is discarded", op.recv, op.name),
		})
	}
	for _, f := range a.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(call)
				}
			case *ast.GoStmt:
				flag(n.Call)
			case *ast.DeferStmt:
				flag(n.Call)
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok || len(n.Lhs) == 0 {
					return true
				}
				last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" {
					flag(call)
				}
			}
			return true
		})
	}
	return fs
}
