// Command eprelint runs the repo-invariant linter (internal/lint)
// over a module tree and reports findings in the familiar
// file:line:col format.  It enforces the project conventions go vet
// cannot: CFG edge lists are only written through the marking helpers,
// pass bodies stay deterministic (no wall clock, no map-iteration
// order reaching output), scratch-arena borrows are always released,
// and analyses are built only by the analysis cache.  Exit status: 0 clean, 1 findings, 2 usage or parse error.
//
//	eprelint            # lint the module rooted at the cwd
//	eprelint path/to/repo
//
// Suppress a deliberate violation inline, with a reason:
//
//	t.Preds = append(t.Preds, e.from) //lint:ignore cfgwrite splice keeps φ slot order
package main

import (
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	root := "."
	switch len(args) {
	case 0:
	case 1:
		if args[0] == "-h" || args[0] == "--help" {
			fmt.Fprintln(os.Stderr, "usage: eprelint [module-root]")
			return 2
		}
		root = args[0]
	default:
		fmt.Fprintln(os.Stderr, "usage: eprelint [module-root]")
		return 2
	}
	diags, err := lint.Tree(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eprelint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "eprelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
