// Package determinism implements the cpelint pass that keeps the simulation
// core replayable: byte-identical Report.ImageHash across runs (DESIGN §11)
// and content-addressed farm cache keys (DESIGN §9) both assume that nothing
// in a run depends on wall-clock time, an unseeded random source, or Go's
// randomized map iteration order.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"repro/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, unseeded rand, and order-dependent map iteration " +
		"in simulation-critical packages",
	Run: run,
}

// SimCritical names the packages (by base name) whose code must be
// deterministic: everything a simulation result, report, or cache key is
// computed from. The experiment farm (internal/farm) and the HTTP server
// legitimately read the wall clock for timeouts and jitter and are excluded;
// they must never feed wall-clock values back into a simulation.
var SimCritical = map[string]bool{
	// The ISSUE 5 core set: the event engine and everything it drives.
	"event": true, "gpu": true, "cp": true, "core": true, "coherence": true,
	"hmg": true, "mem": true, "oracle": true, "gen": true,
	"noc": true, "stats": true,
	// The rest of the result path: workload construction, machine assembly,
	// figure harnesses, trace artifacts, and the CLI entry points that write
	// ordered reports.
	"kernels": true, "workloads": true, "machine": true, "config": true,
	"energy": true, "hip": true, "trace": true, "experiments": true,
	"repro": true, "sweep": true, "crosscheck": true, "paper-figures": true,
	"inspect": true, "cpelide-sim": true,
}

// rand constructors that are fine: they produce a source from an explicit
// seed (the seed expression is checked separately — time.Now inside it is
// caught by the wall-clock rule).
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !SimCritical[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		// Test files are exempt: reproducibility claims are made about
		// library code, and tests already pin their own seeds.
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncBody(pass, n.Body)
				}
				return true
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock reads and global (unseeded) rand calls.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s in simulation-critical package %s: simulated time must come from the event engine clock, never the wall clock",
				fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on an explicitly-constructed *rand.Rand are fine
		}
		if randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global rand.%s in simulation-critical package %s: use a seeded source (rand.New(rand.NewSource(seed))) so runs replay",
			fn.Name(), pass.Pkg.Name())
	}
}

// checkFuncBody finds range-over-map statements whose body leaks the
// iteration order into an ordered artifact: a slice append (unless the slice
// is sorted later in the same function), ordered text output, a hash, or the
// event calendar.
func checkFuncBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rng)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkOrderedAssign(pass, funcBody, rng, n)
		case *ast.CallExpr:
			checkOrderedCall(pass, rng, n)
		}
		return true
	})
}

// checkOrderedAssign flags `s = append(s, ...)` and `s += ...` (string
// accumulation) where s outlives the loop, unless s is sorted afterwards in
// the same function.
func checkOrderedAssign(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN:
		obj := outerObj(pass, rng, as.Lhs[0])
		if obj == nil {
			return
		}
		if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			pass.Reportf(as.Pos(),
				"string concatenation onto %q inside map iteration: the result depends on Go's randomized map order; iterate sorted keys instead",
				obj.Name())
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.TypesInfo, call) || i >= len(as.Lhs) {
				continue
			}
			obj := outerObj(pass, rng, as.Lhs[i])
			if obj == nil {
				continue
			}
			if sortedInFunc(pass, funcBody, obj, rng.End()) {
				continue // the sorted-keys idiom: append then sort
			}
			pass.Reportf(as.Pos(),
				"append to %q inside map iteration without a later sort: the slice order depends on Go's randomized map order; sort it (or the keys) before use",
				obj.Name())
		}
	}
}

// checkOrderedCall flags calls inside a map-range body that emit ordered or
// hashed output, or schedule events, in iteration order.
func checkOrderedCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && !isMethod &&
		(hasPrefix(fn.Name(), "Fprint") || hasPrefix(fn.Name(), "Print")):
		pass.Reportf(call.Pos(),
			"fmt.%s inside map iteration writes output in Go's randomized map order; iterate sorted keys instead",
			fn.Name())
	case isMethod && writerMethods[fn.Name()]:
		pass.Reportf(call.Pos(),
			"%s.%s inside map iteration feeds bytes in Go's randomized map order (ordered artifacts and hashes — ImageHash, farm cache keys — must not depend on it); iterate sorted keys instead",
			recvTypeName(sig), fn.Name())
	case analysis.IsEngineMethod(fn, "Schedule"):
		pass.Reportf(call.Pos(),
			"event.Engine.Schedule inside map iteration: same-cycle events tie-break by insertion order, so scheduling from a map range makes delivery order run-dependent; iterate sorted keys instead")
	}
}

// writerMethods are method names that append bytes to an ordered sink:
// io.Writer implementations, strings.Builder/bytes.Buffer, and hash.Hash
// (whose Write is how content reaches ImageHash-style digests).
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// outerObj resolves e to a named variable declared outside the range
// statement, or nil: mutations of loop-local state cannot leak iteration
// order.
func outerObj(pass *analysis.Pass, rng *ast.RangeStmt, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil
	}
	return obj
}

// sortedInFunc reports whether obj is passed to a sort.* or slices.Sort*
// call somewhere after the range statement in the same function body — the
// append-keys-then-sort idiom that makes map iteration order irrelevant.
func sortedInFunc(pass *analysis.Pass, funcBody *ast.BlockStmt, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			argFound := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					argFound = true
				}
				return !argFound
			})
			if argFound {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
