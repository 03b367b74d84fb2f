// Package exhaustive implements the cpelint pass that keeps switches over
// the simulator's enum-like constant blocks total. The CPElide elision
// argument is a case analysis — every protocol kind, calendar kind, fault
// kind, and mutation kind must be handled somewhere — and a switch
// that silently falls through for a newly added constant turns an
// incomplete analysis into a silent wrong answer instead of a loud one.
//
// A switch whose tag has a defined type from this module with two or more
// package-level constants of that exact type must either:
//
//   - list every declared constant value among its cases (aliases with the
//     same value count as covered together), or
//   - carry a default clause with a non-empty body — an explicit "this
//     value is unexpected" path (return an error, panic, count a stat).
//     An empty default is flagged too: it documents nothing and swallows
//     the new constant just as silently as no default.
//
// Sentinel constants whose name starts with "num" (stats.numCounters, the
// dense-array-size idiom) are not part of the enum and need no case. Test
// files are exempt: a test switching on two of five kinds is asserting those
// two, not analyzing all five.
package exhaustive

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the exhaustive pass.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: "switches over enum-like const blocks (protocol, calendar kind, fault kind, mutation " +
		"kind, ...) must cover every declared constant or carry a non-empty default clause",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if len(f.Decls) > 0 && analysis.IsTestFile(pass.Fset, f.Decls[0].Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if ok && sw.Tag != nil {
				checkSwitch(pass, sw)
			}
			return true
		})
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	t := pass.TypesInfo.TypeOf(sw.Tag)
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !inModule(pass, obj.Pkg()) {
		return
	}
	enum := enumConsts(named)
	if len(enum) < 2 {
		return
	}
	covered := map[string]bool{}
	var deflt *ast.CaseClause
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}
	if deflt != nil {
		if len(deflt.Body) == 0 {
			pass.Reportf(deflt.Pos(),
				"switch over %s has an empty default: handle the unexpected value explicitly (error, panic, or counter)",
				obj.Name())
		}
		return
	}
	var missing []string
	seen := map[string]bool{}
	for _, c := range enum {
		v := c.Val().ExactString()
		if covered[v] || seen[v] {
			continue
		}
		seen[v] = true
		missing = append(missing, c.Name())
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(),
		"switch over %s is not exhaustive: missing %s (cover them or add a default that rejects unexpected values)",
		obj.Name(), strings.Join(missing, ", "))
}

// inModule reports whether pkg is part of the module under analysis: the
// unit's own package, or any package under the repro module path. Fixtures
// place cross-package enum stubs under a "repro/" path for the same reason.
func inModule(pass *analysis.Pass, pkg *types.Package) bool {
	return pkg == pass.Pkg || pkg.Path() == pass.Pkg.Path() ||
		strings.HasPrefix(pkg.Path(), "repro/")
}

// enumConsts returns the package-level constants declared with exactly the
// named type, excluding "num"-prefixed array-size sentinels.
func enumConsts(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if strings.HasPrefix(c.Name(), "num") {
			continue
		}
		out = append(out, c)
	}
	return out
}
