// Package noalloc implements the cpelint pass behind the //cpelide:noalloc
// function annotation. The simulator's hot paths — event scheduling,
// RangeSet algebra, cache lookups, stats counters —
// were hand-optimized to zero steady-state allocations (DESIGN §16), and the
// BENCH_core gate fails on allocation regressions; this pass makes the same
// invariant a compile-time property, so a regression is reported at the line
// that introduces it rather than as an opaque allocs/op delta.
//
// Inside an annotated body the pass flags every construct that the compiler
// lowers to a heap allocation (or that it cannot prove stack-bound without
// escape analysis, which a per-unit checker does not have):
//
//   - slice and map composite literals, and &T{...} pointer literals
//   - make, new, and go statements
//   - append whose result escapes (assigned to a field, element, or
//     package-level variable, returned, or passed on) — append into a local
//     slice is the preallocated-scratch idiom and is allowed
//   - non-constant string concatenation and []byte/string conversions
//   - interface boxing of non-pointer-shaped values (assignments, returns,
//     conversions, and arguments to checked calls)
//   - closures and bound method values
//   - calls to functions that are not themselves annotated //cpelide:noalloc
//     (a short allowlist covers provably non-allocating stdlib helpers)
//
// Amortized growth of owned storage (the event queue reaching its pending
// high-water mark, a RangeSet spilling past its inline array) is a deliberate
// exception: those
// sites carry a //cpelint:ignore noalloc directive with a reason, and the
// documented baseline in DESIGN §17 enumerates every one.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "check //cpelide:noalloc-annotated functions statically: no composite-literal/make/new " +
		"allocation, no append to escaping slices, no string concat, no interface boxing, no " +
		"closures, and no calls to non-annotated functions",
	Run: run,
}

// allowPkgs are packages whose exported functions never allocate: pure
// integer/float computation with value arguments and results.
var allowPkgs = map[string]bool{
	"math/bits": true,
	"math":      true,
}

// noescapeFuncs are stdlib functions whose function-typed parameter does not
// escape, so a closure passed directly to them stays on the stack. The hot
// RangeSet lookups use sort.Search exactly this way.
var noescapeFuncs = map[string]bool{
	"sort.Search": true,
}

func run(pass *analysis.Pass) error {
	annotated, misplaced := analysis.NoallocFuncs(pass.Files, pass.TypesInfo)
	for _, c := range misplaced {
		pass.Reportf(c.Pos(),
			"misplaced %s annotation: it must appear in a function declaration's doc comment", analysis.NoallocPrefix)
	}
	for _, fd := range annotated {
		if fd.Body == nil {
			continue
		}
		(&checker{pass: pass, annotated: annotated}).check(fd)
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	annotated map[types.Object]*ast.FuncDecl

	// localAppends marks append calls whose result lands in a function-local
	// variable (allowed: the preallocated-scratch idiom); callFuns marks
	// expressions in call position (so method *values* can be told apart
	// from method calls); stackClosures marks function literals passed
	// directly to a noescape-listed callee.
	localAppends  map[*ast.CallExpr]bool
	callFuns      map[ast.Expr]bool
	stackClosures map[*ast.FuncLit]bool
}

func (c *checker) check(fd *ast.FuncDecl) {
	c.localAppends = map[*ast.CallExpr]bool{}
	c.callFuns = map[ast.Expr]bool{}
	c.stackClosures = map[*ast.FuncLit]bool{}
	c.prepass(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement in noalloc function %s allocates a goroutine stack", fd.Name.Name)
		case *ast.CompositeLit:
			c.compositeLit(fd, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.pass.Reportf(n.Pos(),
						"address of composite literal in noalloc function %s is a heap allocation", fd.Name.Name)
					return false // the inner literal is the same allocation
				}
			}
		case *ast.CallExpr:
			c.call(fd, n)
		case *ast.BinaryExpr:
			c.stringConcat(fd, n)
		case *ast.FuncLit:
			if !c.stackClosures[n] {
				c.pass.Reportf(n.Pos(),
					"closure in noalloc function %s allocates (captured variables move to the heap)", fd.Name.Name)
			}
		case *ast.SelectorExpr:
			c.methodValue(fd, n)
		case *ast.AssignStmt:
			c.assignBoxing(fd, n)
		case *ast.ReturnStmt:
			c.returnBoxing(fd, n)
		}
		return true
	})
}

// prepass classifies append destinations, call positions, and stack-safe
// closures before the main walk.
func (c *checker) prepass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(c.pass.TypesInfo, call, "append") {
					continue
				}
				if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
						if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && insideBody(body, obj) {
							c.localAppends[call] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			c.callFuns[ast.Unparen(n.Fun)] = true
			if fn := analysis.CalleeFunc(c.pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
				noescapeFuncs[fn.Pkg().Path()+"."+fn.Name()] {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						c.stackClosures[lit] = true
					}
				}
			}
		}
		return true
	})
}

// insideBody reports whether obj is declared within body — i.e. a true local,
// not a parameter-shadowing package variable.
func insideBody(body *ast.BlockStmt, obj types.Object) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() < body.End()
}

func (c *checker) compositeLit(fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.pass.Reportf(lit.Pos(), "slice literal in noalloc function %s allocates its backing array", fd.Name.Name)
	case *types.Map:
		c.pass.Reportf(lit.Pos(), "map literal in noalloc function %s allocates", fd.Name.Name)
	}
}

func (c *checker) call(fd *ast.FuncDecl, call *ast.CallExpr) {
	info := c.pass.TypesInfo
	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(fd, call, tv.Type)
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				c.pass.Reportf(call.Pos(), "%s in noalloc function %s allocates", b.Name(), fd.Name.Name)
			case "append":
				if !c.localAppends[call] {
					c.pass.Reportf(call.Pos(),
						"append in noalloc function %s grows an escaping slice (the result does not land in a local variable)", fd.Name.Name)
				}
			case "print", "println":
				c.pass.Reportf(call.Pos(), "%s in noalloc function %s may allocate; remove debug output", b.Name(), fd.Name.Name)
			}
			return
		}
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		c.pass.Reportf(call.Pos(),
			"dynamic call in noalloc function %s cannot be verified allocation-free; call a //cpelide:noalloc function directly", fd.Name.Name)
		return
	}
	switch {
	case c.annotated[fn] != nil:
		c.argBoxing(fd, call, fn)
	case fn.Pkg() != nil && allowPkgs[fn.Pkg().Path()]:
	case fn.Pkg() != nil && noescapeFuncs[fn.Pkg().Path()+"."+fn.Name()]:
	default:
		c.pass.Reportf(call.Pos(),
			"call to %s in noalloc function %s: the callee is not annotated //cpelide:noalloc and may allocate", fn.Name(), fd.Name.Name)
	}
}

func (c *checker) conversion(fd *ast.FuncDecl, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argT := c.pass.TypesInfo.TypeOf(call.Args[0])
	if argT == nil {
		return
	}
	switch ut := target.Underlying().(type) {
	case *types.Interface:
		if boxes(argT) && !isNil(c.pass.TypesInfo, call.Args[0]) {
			c.pass.Reportf(call.Pos(),
				"conversion to interface in noalloc function %s boxes a %s value on the heap", fd.Name.Name, argT.String())
		}
	case *types.Slice:
		if b, ok := argT.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			c.pass.Reportf(call.Pos(), "string-to-slice conversion in noalloc function %s allocates", fd.Name.Name)
		}
	case *types.Basic:
		if ut.Info()&types.IsString != 0 {
			if _, ok := argT.Underlying().(*types.Slice); ok {
				c.pass.Reportf(call.Pos(), "slice-to-string conversion in noalloc function %s allocates", fd.Name.Name)
			}
		}
	}
}

func (c *checker) stringConcat(fd *ast.FuncDecl, bin *ast.BinaryExpr) {
	if bin.Op != token.ADD {
		return
	}
	t := c.pass.TypesInfo.TypeOf(bin)
	b, ok := t.(*types.Basic)
	if !ok && t != nil {
		b, _ = t.Underlying().(*types.Basic)
	}
	if b == nil || b.Info()&types.IsString == 0 {
		return
	}
	if tv, ok := c.pass.TypesInfo.Types[bin]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	c.pass.Reportf(bin.Pos(), "string concatenation in noalloc function %s allocates", fd.Name.Name)
}

// methodValue flags x.M used as a value: binding the receiver allocates a
// closure. (A plain package-function value is a static pointer and is fine.)
func (c *checker) methodValue(fd *ast.FuncDecl, sel *ast.SelectorExpr) {
	if c.callFuns[sel] {
		return
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	c.pass.Reportf(sel.Pos(),
		"method value %s.%s in noalloc function %s allocates a bound closure", exprString(sel.X), sel.Sel.Name, fd.Name.Name)
}

func (c *checker) assignBoxing(fd *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Rhs {
		lt := c.pass.TypesInfo.TypeOf(as.Lhs[i])
		c.boxingAt(fd, lt, as.Rhs[i])
	}
}

func (c *checker) returnBoxing(fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	sig, ok := c.pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
	if !ok || sig.Results() == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		c.boxingAt(fd, sig.Results().At(i).Type(), res)
	}
}

// argBoxing checks the arguments of a call to an annotated (hence allowed)
// function for interface boxing at the call site.
func (c *checker) argBoxing(fd *ast.FuncDecl, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return
	}
	params := sig.Params()
	if params.Len() != len(call.Args) {
		return
	}
	for i, arg := range call.Args {
		c.boxingAt(fd, params.At(i).Type(), arg)
	}
}

// boxingAt reports e when assigning it to a destination of type dst would box
// a non-pointer-shaped concrete value into an interface.
func (c *checker) boxingAt(fd *ast.FuncDecl, dst types.Type, e ast.Expr) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil || isNil(c.pass.TypesInfo, e) || !boxes(t) {
		return
	}
	c.pass.Reportf(e.Pos(),
		"interface boxing in noalloc function %s: a %s value is copied to the heap; pass a pointer or restructure", fd.Name.Name, t.String())
}

// boxes reports whether storing a value of type t in an interface requires a
// heap allocation. Pointer-shaped types (pointers, channels, maps, funcs,
// unsafe pointers) are stored directly; interfaces re-box without allocating.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.UntypedNil
	}
	return true
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expr"
}
