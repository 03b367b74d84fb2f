// Package load turns `go list` output into type-checked compilation units
// for the cpelint driver — a dependency-free stand-in for
// golang.org/x/tools/go/packages.
//
// It shells out to `go list -e -export -deps -test -json`, which compiles
// (or reuses from the build cache) export data for every dependency, then
// parses each requested unit's sources and type-checks them with the
// standard library's gc importer reading that export data. Test variants
// are analyzed the way the go tool builds them: a package with in-package
// tests is analyzed once as "p [p.test]" (GoFiles + TestGoFiles, so every
// file is seen exactly once), and external _test packages are analyzed as
// their own unit with imports remapped through go list's ImportMap.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Unit is one type-checked compilation unit ready for analysis.
type Unit struct {
	ImportPath string // as listed, possibly "p [p.test]"
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Incomplete bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// ErrLoad wraps failures to enumerate, parse, or type-check packages.
var ErrLoad = errors.New("cpelint: load")

// Packages loads and type-checks the units matched by patterns, resolved
// relative to dir (the module root). Standard-library packages and generated
// test mains are never returned.
func Packages(dir string, patterns []string) ([]*Unit, error) {
	args := []string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,Name,Dir,Export,GoFiles,CgoFiles,Imports,ImportMap,Standard,DepOnly,ForTest,Incomplete,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: go list: %v\n%s", ErrLoad, err, stderr.String())
	}

	exports := map[string]string{} // listed ImportPath (incl. bracketed variants) -> export file
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: decoding go list output: %v", ErrLoad, err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}

	// A package with in-package tests appears both plain and as
	// "p [p.test]"; analyze only the test-expanded variant so each file is
	// seen once.
	expanded := map[string]bool{}
	for _, p := range pkgs {
		if p.ForTest != "" && p.Name != "main" && !strings.HasSuffix(p.Name, "_test") &&
			strings.HasSuffix(p.ImportPath, "]") {
			expanded[p.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var units []*Unit
	var loadErrs []string
	for _, p := range pkgs {
		switch {
		case p.Standard || p.DepOnly:
			continue
		case strings.HasSuffix(p.ImportPath, ".test"):
			continue // generated test main
		case expanded[p.ImportPath]:
			continue // superseded by its "p [p.test]" variant
		}
		if p.Error != nil {
			loadErrs = append(loadErrs, p.ImportPath+": "+p.Error.Err)
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		if len(p.CgoFiles) > 0 {
			// No cgo in this module; refuse rather than analyze a partial
			// package silently.
			loadErrs = append(loadErrs, p.ImportPath+": cgo packages are not supported by cpelint")
			continue
		}
		u, err := check(fset, p, exports)
		if err != nil {
			loadErrs = append(loadErrs, err.Error())
			continue
		}
		units = append(units, u)
	}
	if len(loadErrs) > 0 {
		return nil, fmt.Errorf("%w:\n  %s", ErrLoad, strings.Join(loadErrs, "\n  "))
	}
	return units, nil
}

// check parses and type-checks one unit against the collected export data.
func check(fset *token.FileSet, p *listPkg, exports map[string]string) (*Unit, error) {
	var files []*ast.File
	for _, gf := range p.GoFiles {
		if !filepath.IsAbs(gf) {
			gf = filepath.Join(p.Dir, gf)
		}
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		ef, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ef)
	}
	goVersion := "go1.22"
	if p.Module != nil && p.Module.GoVersion != "" {
		goVersion = "go" + p.Module.GoVersion
	}
	var typeErrs []string
	conf := types.Config{
		// A fresh importer per unit: the gc importer caches by import
		// path, and test variants remap the same path to different export
		// data.
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: goVersion,
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	importPath := p.ImportPath
	if i := strings.IndexByte(importPath, ' '); i > 0 {
		importPath = importPath[:i] // "p [p.test]" type-checks as path p
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type errors:\n    %s", p.ImportPath, strings.Join(typeErrs, "\n    "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
	}
	return &Unit{
		ImportPath: p.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}
