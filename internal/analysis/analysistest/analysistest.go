// Package analysistest runs cpelint analyzers over fixture packages and
// compares the reported diagnostics against expectations embedded in the
// fixture source — a dependency-free analogue of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixture layout mirrors x/tools: <testdata>/src/<pkgpath>/*.go. Imports in
// fixture files resolve against <testdata>/src first (so a fixture can
// provide stubs, such as a fake event package for the engine-aware rules),
// then against the standard library via the source importer, which needs no
// pre-built export data and therefore works offline.
//
// An expectation is a trailing comment of the form
//
//	// want `regexp` `regexp` ...
//
// Each backquoted regexp must match the message of one diagnostic reported
// on that line. Diagnostics with no matching expectation, and expectations
// with no matching diagnostic, fail the test. Fixtures run through
// analysis.RunUnit, the same path cmd/cpelint takes.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// goVersion is the language version fixtures are checked under: the
// module's declared version.
const goVersion = "go1.22"

// Run loads the fixture package at <testdata>/src/<pkgpath>, applies the
// analyzers, and compares diagnostics against the fixture's expectations.
func Run(t *testing.T, testdata, pkgpath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	loaderMu.Lock()
	u, err := loadFixture(testdata, pkgpath)
	loaderMu.Unlock()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	diags, err := analysis.RunUnit(u.fset, u.files, u.pkg, u.info, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgpath, err)
	}
	wants, err := collectWants(u.paths)
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, diags, wants)
}

// The loader shares one FileSet, one source importer, and a dependency cache
// across all Run calls in a test binary: source-importing the standard
// library is the expensive part, and it only needs to happen once.
var (
	loaderMu   sync.Mutex
	sharedFset = token.NewFileSet()
	stdOnce    sync.Once
	stdImp     types.Importer
	depCache   = map[string]*types.Package{}
)

type fixtureUnit struct {
	fset  *token.FileSet
	files []*ast.File
	paths []string // absolute source paths, parallel to files
	pkg   *types.Package
	info  *types.Info
}

// fixtureImporter resolves imports under the fixture source root first, then
// falls back to the standard library.
type fixtureImporter struct {
	srcRoot string
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(im.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		if p, ok := depCache[dir]; ok {
			return p, nil
		}
		u, err := typecheck(im.srcRoot, dir, path, false)
		if err != nil {
			return nil, err
		}
		depCache[dir] = u.pkg
		return u.pkg, nil
	}
	stdOnce.Do(func() { stdImp = importer.ForCompiler(sharedFset, "source", nil) })
	return stdImp.Import(path)
}

func loadFixture(testdata, pkgpath string) (*fixtureUnit, error) {
	src, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		return nil, err
	}
	return typecheck(src, filepath.Join(src, filepath.FromSlash(pkgpath)), pkgpath, true)
}

// typecheck parses and type-checks one fixture directory as a package.
// Dependency stubs are loaded without their _test.go files; the unit under
// test keeps them, since the test-file exemptions are themselves under test.
func typecheck(srcRoot, dir, pkgpath string, withTests bool) (*fixtureUnit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		if !withTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	u := &fixtureUnit{fset: sharedFset}
	for _, n := range names {
		p := filepath.Join(dir, n)
		f, err := parser.ParseFile(sharedFset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, f)
		u.paths = append(u.paths, p)
	}
	conf := types.Config{
		Importer:  &fixtureImporter{srcRoot: srcRoot},
		GoVersion: goVersion,
	}
	u.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	u.pkg, err = conf.Check(pkgpath, sharedFset, u.files, u.info)
	if err != nil {
		return nil, err
	}
	return u, nil
}

// A want is one expectation: a regexp that must match a diagnostic message
// on a specific fixture line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

const wantMarker = "// want "

func collectWants(paths []string) ([]*want, error) {
	var out []*want
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, wantMarker)
			if idx < 0 {
				continue
			}
			pats, err := parsePatterns(line[idx+len(wantMarker):])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", p, i+1, err)
			}
			for _, pat := range pats {
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", p, i+1, pat, err)
				}
				out = append(out, &want{file: p, line: i + 1, re: re, raw: pat})
			}
		}
	}
	return out, nil
}

// parsePatterns reads the backquoted regexps of one want clause.
func parsePatterns(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			break
		}
		if s[0] != '`' {
			return nil, fmt.Errorf("want patterns must be backquoted")
		}
		j := strings.IndexByte(s[1:], '`')
		if j < 0 {
			return nil, fmt.Errorf("unterminated want pattern")
		}
		out = append(out, s[1:1+j])
		s = s[j+2:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want clause")
	}
	return out, nil
}

// reporter is the subset of *testing.T the matcher needs; the harness's own
// tests substitute a recorder to prove mismatches are detected.
type reporter interface {
	Errorf(format string, args ...any)
}

func matchWants(t reporter, diags []analysis.UnitDiagnostic, wants []*want) {
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
