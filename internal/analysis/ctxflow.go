package analysis

import (
	"go/ast"
)

// CtxFlow enforces context plumbing on the request path: a function
// that receives a context.Context (or an *http.Request, which carries
// one) must thread it, never mint a fresh context.Background() or
// context.TODO(). A minted root context silently detaches everything
// downstream from the caller's deadline and cancellation — the serving
// layer's per-request deadlines (PR 4), the admission queue's
// deadline-aware waits (PR 7) and oniond's graceful drain all stop
// applying, and the bug only shows up as queries that refuse to die.
//
// Scope: packages whose import path ends in serve, oniond, core or
// query — the request path from HTTP handler to scan dispatch. Entry
// points without an incoming context (main, bench harnesses, the
// documented context-free convenience APIs core.System.Query and
// QueryWith) are not flagged: the rule is about *dropping* a context you
// were handed.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "request-path functions (serve, oniond, core, query) that receive a context " +
		"must thread it — no context.Background()/context.TODO() beside an incoming ctx",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	pkg := pass.Pkg
	if !pkgElemIs(pkg, "serve", "oniond", "core", "query") {
		return nil
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasIncomingCtx(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeOf(pkg.Info, call)
				if funcIs(f, "context", "Background") || funcIs(f, "context", "TODO") {
					pass.Reportf(call.Pos(),
						"%s receives a context but mints context.%s here, detaching downstream work "+
							"from the request's deadline and cancellation; thread the incoming context instead",
						fd.Name.Name, f.Name())
				}
				return true
			})
		}
	}
	return nil
}

// hasIncomingCtx reports whether the function receives a
// context.Context parameter or an *http.Request (whose Context() is the
// request context).
func hasIncomingCtx(pass *Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		t := pass.Pkg.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		if typeIs(t, "context", "Context") || typeIs(t, "http", "Request") {
			return true
		}
	}
	return false
}
