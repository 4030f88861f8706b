package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxPlumb enforces cancellation plumbing: every long-running loop must
// honour its caller's context. It checks three rules, in every package:
//
//   - context.Context, where a function takes one, is the first
//     parameter. Mixed positions make call sites ambiguous and break
//     mechanical refactors (adding cancellation to a call chain should
//     never require reordering arguments).
//   - A //imc:longrun function — a compute entry point that can run for
//     seconds to minutes (sample generation, solver loops, MC
//     estimation) — takes a context first, and when it hands work to
//     another longrun function in the same package it forwards that
//     context rather than minting a fresh context.Background()/TODO(),
//     which would silently sever the cancellation chain. Unannotated
//     callers with no ctx of their own (a CLI main passing
//     context.Background()) stay legal: this rule binds only annotated
//     functions. A longrun function whose context is misplaced gets this
//     rule's finding only, not the first rule's as well.
//   - Inside a function that takes a context, a select without a
//     default clause also waits on cancellation: a `<-ctx.Done()` case,
//     directly or through a local assigned from Done(). A select that
//     waits only on job or worker channels keeps the goroutine alive
//     after the caller gave up.
var CtxPlumb = &Analyzer{
	Name: "ctxplumb",
	Doc:  "context.Context comes first; //imc:longrun functions forward ctx to longrun callees; selects in ctx-taking functions wait on cancellation",
	Kind: KindSyntactic,
	Run:  runCtxPlumb,
}

func runCtxPlumb(pkg *Package, r *Reporter) {
	dirs := funcDirectives(pkg)
	// Index the type objects of every annotated function so call sites
	// resolve across files and through method values.
	longrun := make(map[types.Object]bool)
	for fd, set := range dirs {
		if set[directiveLongRun] {
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				longrun[obj] = true
			}
		}
	}
	for _, file := range pkg.Files {
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				reportCtxNotFirst(r, ctxParams(pkg, n.Type), "function literal")
			case *ast.FuncDecl:
				ctxs := ctxParams(pkg, n.Type)
				if hasDirective(dirs, n, directiveLongRun) {
					checkLongRun(pkg, r, file, n, ctxs, longrun)
				} else {
					reportCtxNotFirst(r, ctxs, n.Name.Name)
				}
				if len(ctxs) > 0 && n.Body != nil {
					checkSelects(r, n.Body)
				}
			}
			return true
		})
	}
}

// ctxParam is one context.Context parameter field and its position,
// counted in individual names: f(a int, ctx context.Context) has ctx at
// index 1 even though it is the second *field*.
type ctxParam struct {
	field *ast.Field
	index int
}

// ctxParams lists ft's context.Context parameters in declaration order.
func ctxParams(pkg *Package, ft *ast.FuncType) []ctxParam {
	if ft.Params == nil {
		return nil
	}
	out := make([]ctxParam, 0, len(ft.Params.List))
	idx := 0
	for _, field := range ft.Params.List {
		if isContextTyped(pkg.Info.TypeOf(field.Type)) {
			out = append(out, ctxParam{field: field, index: idx})
		}
		idx += max(len(field.Names), 1)
	}
	return out
}

// isContextTyped reports whether t is context.Context.
func isContextTyped(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// reportCtxNotFirst flags every context parameter that is not first.
func reportCtxNotFirst(r *Reporter, ctxs []ctxParam, name string) {
	for _, c := range ctxs {
		if c.index > 0 {
			r.Reportf("ctxplumb", c.field.Type.Pos(),
				"context.Context is parameter %d of %s; it must come first", c.index+1, name)
		}
	}
}

// checkLongRun applies the //imc:longrun rule to fd: a context first,
// forwarded to every longrun callee.
func checkLongRun(pkg *Package, r *Reporter, file *ast.File, fd *ast.FuncDecl, ctxs []ctxParam, longrun map[types.Object]bool) {
	if len(ctxs) == 0 || ctxs[0].index > 0 {
		r.Reportf("ctxplumb", fd.Name.Pos(),
			"//imc:longrun function %s must take context.Context as its first parameter", fd.Name.Name)
	} else {
		reportCtxNotFirst(r, ctxs[1:], fd.Name.Name)
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeIdent(call)
		if callee == nil || !longrun[pkg.Info.Uses[callee]] || len(call.Args) == 0 {
			return true
		}
		if inner, ok := call.Args[0].(*ast.CallExpr); ok {
			if sel, ok := pkg.selectorCall(file, inner, "context", "Background", "TODO"); ok {
				r.Reportf("ctxplumb", sel.Pos(),
					"%s severs the cancellation chain: forward ctx to longrun %s, not context.%s()",
					fd.Name.Name, callee.Name, sel.Sel.Name)
			}
		}
		return true
	})
}

// calleeIdent returns the identifier a call resolves through: the bare
// name for function calls, the selected name for method calls.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// checkSelects flags every select in body that can block without
// waiting on cancellation. Selects with a default never block.
func checkSelects(r *Reporter, body *ast.BlockStmt) {
	doneVars := doneChannelVars(body)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || selectHasDefault(sel) || selectWaitsOnDone(sel, doneVars) {
			return true
		}
		r.Reportf("ctxplumb", sel.Pos(),
			"select blocks without waiting on ctx cancellation; add a <-ctx.Done() case or a default clause")
		return true
	})
}

// doneChannelVars collects names bound to a Done() channel
// (`done := ctx.Done()`), so receives through the alias count as
// waiting on cancellation.
func doneChannelVars(body ast.Node) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isDoneCall(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// selectWaitsOnDone reports whether any comm clause receives from a
// Done() channel or a recorded alias of one.
func selectWaitsOnDone(sel *ast.SelectStmt, doneVars map[string]bool) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var ch ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			ch = recvOperand(s.X)
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				ch = recvOperand(s.Rhs[0])
			}
		}
		if ch == nil {
			continue
		}
		if isDoneCall(ch) {
			return true
		}
		if id, ok := ast.Unparen(ch).(*ast.Ident); ok && doneVars[id.Name] {
			return true
		}
	}
	return false
}

// recvOperand unwraps `<-ch` to ch, nil for non-receive expressions.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// isDoneCall matches a call to a method named Done with no arguments —
// context.Context.Done() and anything shaped like it.
func isDoneCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	s, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && s.Sel.Name == "Done"
}
