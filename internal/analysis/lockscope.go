package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockScope enforces the PR 6 review invariant in the serving layer: no
// call that can reach file I/O, the network, or a sleep while a mutex
// is held. The serve mutexes guard in-memory maps on the hot path — a
// cache hit is "a short lock" by contract (that is what benchmark/'s
// serve.cache_hit_ms measures), and one disk read inside a critical
// section turns every concurrent cache hit into a disk-latency wait.
//
// The check walks each function of a package whose path ends in
// "serve", tracks which mutexes are held after m.Lock()/m.RLock()
// (released by the matching Unlock; a deferred Unlock holds to the end
// of the function), and for every call issued while a lock is held
// asks the program-wide call graph whether the callee can reach a sink:
// vfs (the repo's filesystem seam), persist, os file I/O, package net,
// or time.Sleep. `go` statements are exempt (the spawned goroutine does
// not run under the caller's lock); deferred calls are exempt (they run
// at return, where an explicitly-unlocked mutex is no longer held —
// pairing them with deferred Unlocks is beyond a lexical check);
// function literals are analyzed as functions in their own right.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc: "serve-layer critical sections must not reach file I/O, network or sleeps " +
		"(call-graph walk from every statement executed under a held mutex; PR 6 review invariant)",
	Run: runLockScope,
}

func runLockScope(pass *Pass) error {
	pkg := pass.Pkg
	if !pkgElemIs(pkg, "serve") {
		return nil
	}
	cg := pass.Prog.CallGraph()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ls := &lockScanner{pass: pass, cg: cg}
			ls.scanFuncBody(fd.Body)
		}
	}
	return nil
}

type lockScanner struct {
	pass *Pass
	cg   *callGraph
}

// scanFuncBody analyzes one function body (and, recursively, each
// function literal inside it as an independent body).
func (ls *lockScanner) scanFuncBody(body *ast.BlockStmt) {
	ls.scanStmts(body.List, map[string]bool{})
	// Function literals get their own scope: a closure's body does not
	// run under the locks lexically held where it is written (it runs
	// when called — often deferred, after an unlock).
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ls.scanStmts(lit.Body.List, map[string]bool{})
		}
		return true
	})
}

// scanStmts walks one statement list with the set of held mutexes
// (keyed by the receiver expression's source form). Nested control-flow
// bodies get a copy of the set: lock-state changes inside a branch are
// not propagated past it (conservative toward false negatives, never
// false positives on the fallthrough path).
func (ls *lockScanner) scanStmts(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			if key, op, ok := ls.mutexOp(st.X); ok {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				continue
			}
			ls.checkExpr(st.X, held)
		case *ast.DeferStmt:
			// A deferred Unlock keeps the mutex held for the rest of the
			// body; any other deferred call runs at return and is not
			// checked here (see the analyzer doc).
			continue
		case *ast.GoStmt:
			continue // runs on its own goroutine, not under these locks
		case *ast.BlockStmt:
			ls.scanStmts(st.List, copyHeld(held))
		case *ast.IfStmt:
			ls.checkStmt(st.Init, held)
			ls.checkExpr(st.Cond, held)
			ls.scanStmts(st.Body.List, copyHeld(held))
			if st.Else != nil {
				ls.scanStmts([]ast.Stmt{st.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			ls.checkStmt(st.Init, held)
			ls.checkExpr(st.Cond, held)
			ls.checkStmt(st.Post, held)
			ls.scanStmts(st.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			ls.checkExpr(st.X, held)
			ls.scanStmts(st.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			ls.checkStmt(st.Init, held)
			ls.checkExpr(st.Tag, held)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					ls.scanStmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			ls.checkStmt(st.Init, held)
			ls.checkStmt(st.Assign, held)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					ls.scanStmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					ls.checkStmt(cc.Comm, held)
					ls.scanStmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			ls.scanStmts([]ast.Stmt{st.Stmt}, held)
		default:
			ls.checkStmt(stmt, held)
		}
	}
}

func (ls *lockScanner) checkStmt(stmt ast.Stmt, held map[string]bool) {
	if stmt == nil || len(held) == 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed independently
		case *ast.CallExpr:
			ls.checkCall(n, held)
		}
		return true
	})
}

func (ls *lockScanner) checkExpr(expr ast.Expr, held map[string]bool) {
	if expr == nil || len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			ls.checkCall(n, held)
		}
		return true
	})
}

// checkCall reports the call if its callee is — or transitively reaches
// — an I/O sink, naming the held mutexes and the offending chain.
func (ls *lockScanner) checkCall(call *ast.CallExpr, held map[string]bool) {
	callee := calleeOf(ls.pass.Pkg.Info, call)
	if callee == nil {
		return
	}
	chain, hit := ls.cg.ReachesSink(callee, lockScopeSink)
	if !hit {
		return
	}
	locks := make([]string, 0, len(held))
	for k := range held {
		locks = append(locks, k)
	}
	via := ""
	if len(chain) > 1 {
		shown := chain
		if len(shown) > 4 {
			shown = append(append([]string{}, shown[:3]...), "...", shown[len(shown)-1])
		}
		via = fmt.Sprintf(" (via %s)", strings.Join(shown, " -> "))
	} else if len(chain) == 1 {
		via = fmt.Sprintf(" (%s)", chain[0])
	}
	ls.pass.Reportf(call.Pos(),
		"call reaches blocking I/O%s while holding %s; disk, network and sleeps must never "+
			"extend a serve critical section (PR 6 review invariant)",
		via, strings.Join(locks, ", "))
}

// mutexOp matches m.Lock()/RLock()/Unlock()/RUnlock() on sync.Mutex or
// sync.RWMutex (directly or embedded) and returns the receiver
// expression's source form as the lock identity.
func (ls *lockScanner) mutexOp(expr ast.Expr) (key, op string, ok bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	f := calleeOf(ls.pass.Pkg.Info, call)
	if f == nil {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sig, sok := f.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", false
	}
	if !typeIs(sig.Recv().Type(), "sync", "Mutex") && !typeIs(sig.Recv().Type(), "sync", "RWMutex") {
		return "", "", false
	}
	sel, sok := call.Fun.(*ast.SelectorExpr)
	if !sok {
		return "", "", false
	}
	return exprString(sel.X), f.Name(), true
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// exprString renders a (small) expression for lock identity and
// messages.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "?"
	}
}

// lockScopeSink classifies functions that block on I/O or time: the
// repo's vfs seam (every function — it exists to be the I/O boundary)
// and persistence layer, os file operations, anything in package net,
// and time.Sleep.
func lockScopeSink(f *types.Func) (string, bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	path := pkg.Path()
	switch pathElem(path) {
	case "vfs":
		return f.FullName(), true
	case "persist":
		if f.Exported() {
			return f.FullName(), true
		}
	}
	if path == "time" && f.Name() == "Sleep" {
		return "time.Sleep", true
	}
	if path == "net" {
		return f.FullName(), true
	}
	if path == "os" {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if typeIs(sig.Recv().Type(), "os", "File") {
				return f.FullName(), true
			}
			return "", false
		}
		if osIOFuncs[f.Name()] {
			return "os." + f.Name(), true
		}
	}
	return "", false
}

// osIOFuncs are the package-level os functions that hit the filesystem.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Stat": true, "Lstat": true, "Truncate": true,
	"Chmod": true, "Chown": true, "Link": true, "Symlink": true,
	"Chtimes": true, "ReadLink": true, "Getwd": true,
}
