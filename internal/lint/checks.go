package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

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
			case *ast.FuncLit: // its own scope: lockWalk skips it
				fs = append(fs, a.lockWalk(n.Body)...)
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
// or launched via go/defer. In/Out errors carry ErrClosed, ErrKilled,
// ErrFormalOut and wire failures; ignoring them turns a clean shutdown
// into a spin or a silent data loss.
func (a *analysis) checkErrors() []Finding {
	var fs []Finding
	flag := func(call *ast.CallExpr) {
		op := a.tupleOpCall(call)
		if op == nil {
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
