// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, just large enough to host the
// cpelint pass suite (cmd/cpelint).
//
// The x/tools module is deliberately not vendored: the simulator has no
// third-party dependencies, and the subset cpelint needs — an Analyzer with
// a Run function over one type-checked package, plus a diagnostic sink — is
// small. Drivers (cmd/cpelint for real packages, the analysistest package
// for fixtures) construct a Pass per compilation unit and collect the
// diagnostics each analyzer reports.
//
// The invariants the passes enforce, and why each one exists, are documented
// in DESIGN.md §12 ("Static invariants").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run applies the analyzer to one compilation unit and reports
	// findings through pass.Report. It returns an error only for
	// analyzer-internal failures, never for findings.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked compilation unit.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A UnitDiagnostic is a driver-side diagnostic annotated with the analyzer
// that produced it and its resolved source position.
type UnitDiagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d UnitDiagnostic) String() string {
	return d.Pos.String() + ": [" + d.Analyzer + "] " + d.Message
}

// RunUnit applies every analyzer to one compilation unit and returns their
// findings.
func RunUnit(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]UnitDiagnostic, error) {
	var diags []UnitDiagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			diags = append(diags, UnitDiagnostic{
				Analyzer: name,
				Pos:      fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// CalleeFunc resolves the static callee of call, or nil when the callee is
// not a declared function or method (builtins, function values, conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the package-level function pkgPath.name
// (not a method).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
