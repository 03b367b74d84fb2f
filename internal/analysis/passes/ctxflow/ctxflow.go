// Package ctxflow implements the cpelint pass that enforces context hygiene
// in the distributed layers (packages farm, cluster, and server), which
// run the farm's workers, held result fetches, health probes, heartbeats
// and hedged submits as goroutines. The two failure modes this pass exists
// to stop both manifest as goroutine leaks that no unit test catches:
//
//   - context laundering: a function that already receives a ctx calls
//     context.Background() or context.TODO(), minting a fresh root that
//     severs the caller's cancellation and deadline. Such a function must
//     derive from the ctx it holds (context.WithTimeout(ctx, ...)). Minting
//     a root is legitimate only in functions with no ctx parameter — a
//     worker's heartbeat goroutine owns its own lifetime and is not
//     flagged.
//
//   - unstoppable service loops: a `for { select { ... } }` loop with no
//     cancellation case spins until process exit. Every such select must
//     have at least one case receiving from a channel of element type
//     struct{} — which covers both ctx.Done() and the close-a-quit-channel
//     idiom (chan struct{}) the farm and coordinator use.
//
// Test files are exempt: tests mint context.Background() at the top level by
// design and their loops are bounded by test timeouts.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "in the farm/cluster/server packages, functions holding a context.Context must not mint " +
		"fresh roots via context.Background/TODO, and for{select} loops must include a " +
		"cancellation case (ctx.Done() or a struct{} quit channel)",
	Run: run,
}

// scopedPkgs are the package names the pass applies to: the layers that spawn
// goroutines and hold contexts. Matched by name so fixtures can use short
// package paths.
var scopedPkgs = map[string]bool{
	"farm":    true,
	"cluster": true,
	"server":  true,
}

func run(pass *analysis.Pass) error {
	if !scopedPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		if len(f.Decls) > 0 && analysis.IsTestFile(pass.Fset, f.Decls[0].Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Name.Name, fd.Type, fd.Body)
		}
	}
	return nil
}

// checkFunc checks one function body against both rules, recursing into
// nested function literals with their own parameter lists (a goroutine
// closure without a ctx parameter may mint its own root).
func checkFunc(pass *analysis.Pass, name string, ft *ast.FuncType, body *ast.BlockStmt) {
	holdsCtx := hasCtxParam(pass, ft)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFunc(pass, name+" (closure)", n.Type, n.Body)
			return false
		case *ast.CallExpr:
			if holdsCtx {
				checkRootMint(pass, name, n)
			}
		case *ast.ForStmt:
			checkSelectLoop(pass, name, n)
		}
		return true
	})
}

// hasCtxParam reports whether the function's own parameters include a
// context.Context.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkRootMint flags context.Background()/context.TODO() inside a function
// that already holds a ctx parameter.
func checkRootMint(pass *analysis.Pass, name string, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
		pass.Reportf(call.Pos(),
			"context.%s() in %s severs the caller's cancellation: the function already has a ctx parameter, derive from it",
			fn.Name(), name)
	}
}

// checkSelectLoop flags an unconditional for loop whose body is built around
// a select with no cancellation case.
func checkSelectLoop(pass *analysis.Pass, name string, loop *ast.ForStmt) {
	if loop.Cond != nil || loop.Init != nil || loop.Post != nil {
		return
	}
	for _, stmt := range loop.Body.List {
		sel, ok := stmt.(*ast.SelectStmt)
		if !ok {
			continue
		}
		if !hasCancelCase(pass, sel) {
			pass.Reportf(sel.Pos(),
				"for-select loop in %s has no cancellation case; add a ctx.Done() or quit-channel receive", name)
		}
	}
}

// hasCancelCase reports whether any select case receives from a channel of
// element type struct{} — the shape of both ctx.Done() and a quit channel.
func hasCancelCase(pass *analysis.Pass, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		var recv ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok {
			continue
		}
		t := pass.TypesInfo.TypeOf(ue.X)
		if t == nil {
			continue
		}
		ch, ok := t.Underlying().(*types.Chan)
		if !ok {
			continue
		}
		if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
			return true
		}
	}
	return false
}
