// Package eventsafety implements the cpelint pass that guards the event
// engine's scheduling API. event.Time is an unsigned cycle count, so a
// delay computed by subtraction can underflow to ~1.8e19 cycles (an event
// that never fires) and a signed value converted at the call site can smuggle
// a negative delay in the same way. Handlers scheduled from loops must also
// not capture loop variables under pre-Go-1.22 semantics, where every
// iteration shares one variable and the handlers all observe its final value.
package eventsafety

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the eventsafety pass.
var Analyzer = &analysis.Analyzer{
	Name: "eventsafety",
	Doc: "flag delay expressions that can underflow or go negative when passed to " +
		"event.Engine.Schedule/ScheduleAfter, and handler closures capturing loop " +
		"variables under pre-Go-1.22 semantics",
	Run: run,
}

func run(pass *analysis.Pass) error {
	pre122 := analysis.LangVersionBefore(pass.GoVersion, 22)
	for _, f := range pass.Files {
		var loops []ast.Node // enclosing for/range statements, innermost last
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, n)
				if f, ok := n.(*ast.ForStmt); ok {
					walkChildren(f, walk)
				} else {
					walkChildren(n, walk)
				}
				loops = loops[:len(loops)-1]
				return false
			case *ast.CallExpr:
				checkScheduleCall(pass, n, loops, pre122)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

func walkChildren(n ast.Node, walk func(ast.Node) bool) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return true
		}
		return walk(c)
	})
}

func checkScheduleCall(pass *analysis.Pass, call *ast.CallExpr, loops []ast.Node, pre122 bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	isAfter := analysis.IsEngineMethod(fn, "ScheduleAfter")
	if !isAfter && !analysis.IsEngineMethod(fn, "Schedule") {
		return
	}
	if len(call.Args) >= 1 {
		checkDelayExpr(pass, call.Args[0], isAfter)
	}
	if pre122 && len(loops) > 0 {
		for _, arg := range call.Args[1:] {
			checkLoopCapture(pass, arg, loops)
		}
	}
}

// checkDelayExpr walks the time argument looking for expressions that can
// wrap around the unsigned event.Time domain.
func checkDelayExpr(pass *analysis.Pass, arg ast.Expr, isDelta bool) {
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			// a - b on unsigned operands: underflow schedules the event
			// ~585 million years out instead of failing.
			if n.Op == token.SUB && isUnsigned(pass.TypesInfo.TypeOf(n)) &&
				!isNonNegativeConst(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(),
					"unsigned subtraction in a %s time argument can underflow event.Time; compute the delay with a saturating helper or schedule at an absolute time",
					scheduleName(isDelta))
			}
		case *ast.CallExpr:
			// event.Time(x) where x is signed and not provably non-negative:
			// a negative delay converts to a huge unsigned one. Only delta
			// arguments are checked — absolute times are routinely built
			// from signed config values that have already been validated.
			if !isDelta || len(n.Args) != 1 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[n.Fun]
			if !ok || !tv.IsType() || !isUnsigned(tv.Type) {
				return true
			}
			opT := pass.TypesInfo.TypeOf(n.Args[0])
			if opT == nil || !isSigned(opT) || isNonNegativeConst(pass.TypesInfo, n.Args[0]) {
				return true
			}
			pass.Reportf(n.Pos(),
				"signed value converted to event.Time in a ScheduleAfter delay: a negative value becomes a ~1.8e19-cycle delay; guard or saturate before converting")
		}
		return true
	})
}

func scheduleName(isDelta bool) string {
	if isDelta {
		return "ScheduleAfter"
	}
	return "Schedule"
}

// checkLoopCapture flags handler arguments (function literals, possibly
// wrapped in a conversion such as event.HandlerFunc(...)) that reference a
// variable declared by an enclosing for or range statement.
func checkLoopCapture(pass *analysis.Pass, arg ast.Expr, loops []ast.Node) {
	vars := map[types.Object]bool{}
	for _, l := range loops {
		collectLoopVars(pass, l, vars)
	}
	if len(vars) == 0 {
		return
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(b ast.Node) bool {
			id, ok := b.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil && vars[obj] {
				pass.Reportf(id.Pos(),
					"handler closure captures loop variable %q: before Go 1.22 every iteration shares one variable, so all scheduled handlers observe its final value; copy it to a local first",
					id.Name)
				vars[obj] = false // one report per variable per closure chain
			}
			return true
		})
		return false // do not descend into nested literals twice
	})
}

func collectLoopVars(pass *analysis.Pass, loop ast.Node, out map[types.Object]bool) {
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if l.Key != nil {
			addIdent(l.Key)
		}
		if l.Value != nil {
			addIdent(l.Value)
		}
	case *ast.ForStmt:
		if init, ok := l.Init.(*ast.AssignStmt); ok {
			for _, lhs := range init.Lhs {
				addIdent(lhs)
			}
		}
	}
}

func isUnsigned(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

func isSigned(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 && b.Info()&types.IsUnsigned == 0
}

// isNonNegativeConst reports whether e is a compile-time constant >= 0.
func isNonNegativeConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	if tv.Value.Kind() != constant.Int {
		return false
	}
	return constant.Sign(tv.Value) >= 0
}
