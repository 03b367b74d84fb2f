// Command cpelint runs the repository's static-invariant passes (DESIGN
// §12): determinism of the simulation core, errors-not-panics in library
// code, and total switches over enum-like constant blocks. Each pass
// catches a planted defect that neither the compiler, go vet nor the tests
// catch; DESIGN §12 keeps the table.
//
//	cpelint [-list] [packages]    # e.g. go run ./cmd/cpelint ./...
//
// It loads the packages itself (internal/analysis/load), prints one line per
// finding, and exits 1 when there is any finding, 3 when loading fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/passes/determinism"
	"repro/internal/analysis/passes/errpanic"
	"repro/internal/analysis/passes/exhaustive"
)

// analyzers is the pass suite, in report order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	errpanic.Analyzer,
	exhaustive.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cpelint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the passes and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cpelint [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpelint:", err)
		return 3
	}
	units, err := load.Packages(dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 3
	}
	var diags []analysis.UnitDiagnostic
	for _, u := range units {
		ds, err := analysis.RunUnit(u.Fset, u.Files, u.Pkg, u.Info, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpelint: %s: %v\n", u.ImportPath, err)
			return 3
		}
		diags = append(diags, ds...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Message < diags[j].Message
	})
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cpelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
