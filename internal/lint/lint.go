// Package lint is the repo-invariant linter behind cmd/eprelint: a
// small, stdlib-only (go/parser + go/ast, no go/packages) static
// analyzer for the project conventions the Go compiler and go vet
// cannot see.  It enforces five invariants, each scoped to the
// packages where it is a correctness property rather than a style
// preference:
//
//   - cfgwrite: only internal/ir and internal/cfg may write a block's
//     Succs/Preds edge lists directly.  Everyone else must go through
//     the mutating helpers (ir.AddEdge, ir.RemoveEdge, the cfg
//     package), because those are what bump the function's CFG
//     generation — a pass that edits edges behind the analysis cache's
//     back poisons every consumer of dominators or liveness after it.
//
//   - irconstruct: only internal/ir may construct ir.Instr values
//     directly (`&ir.Instr{...}`, `new(ir.Instr)`).  Instructions live
//     in their function's arena and carry a private dense InstrID;
//     a bare literal has no identity and the block mutators panic on
//     it.  Everyone else allocates through a Func (NewInstr, NewLoadI,
//     NewCopy, NewCall, NewPhi, CloneInstr).
//
//   - timenow / maporder: pass bodies must be deterministic.  Reading
//     the wall clock (time.Now, time.Since) or letting map iteration
//     order reach an ordered sink (append to a slice that is never
//     sorted, printing, writing) makes two runs of the same pipeline
//     diverge, which breaks the golden-output tests, the serve cache,
//     and the differential fuzzer's shrinker.
//
//   - scratch: a buffer borrowed from the analysis cache's scratch
//     arena (BorrowInts/BorrowRegs/BorrowBlocks/BorrowBools) must be
//     released with the matching Return call in the same function, or
//     handed to the caller via return (ownership transfer, DESIGN.md
//     §12).  A borrow that simply goes out of scope silently defeats
//     the arena.
//
//   - analysisbuild: only internal/analysis and internal/cfg may call
//     the analysis constructors cfg.ReversePostorder, cfg.BuildDomTree,
//     cfg.FindLoops and dataflow.ComputeLiveness; test files are
//     exempt.  Everyone else asks the analysis cache, which is what
//     memoizes the result and counts the build (BuildCounts, per
//     cache) — a pass that builds its own goes uncounted and rebuilds
//     what the cache already holds.
//
// False positives are suppressed inline with a directive comment on
// the offending line or the line above:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory; an ignored finding with no justification
// is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one linter finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string // "cfgwrite", "irconstruct", "timenow", "maporder", "scratch", "analysisbuild"
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// nonPassPackages are the internal packages whose files are NOT "pass
// bodies", each exempt from the determinism/scratch checks for a
// stated reason.  Every other internal/ package is a pass package by
// default, so a newly added optimization package is linted the moment
// it exists — the old allowlist silently skipped new packages until
// someone remembered to register them.  cmd/ binaries are never pass bodies (they print and
// time things on purpose); the cfgwrite check still applies to them.
var nonPassPackages = map[string]bool{
	"internal/core":     true, // pass manager: owns timing instrumentation and pass-list printing
	"internal/difftest": true, // fuzz harness: reports wall-clock and writes artifacts by design
	"internal/serve":    true, // HTTP daemon: timestamps, logging, request-scoped output
	"internal/interp":   true, // interpreter: not in the pipeline; traces print by design
	"internal/ir":       true, // data-structure layer: printers/dumps, not transformation code
	"internal/lint":     true, // the linter itself (its output is sorted, not pass output)
	"internal/minift":   true, // frontend: compiles source, runs before the pipeline
	// internal/pl0 and internal/lang are deliberately NOT here: the
	// PL/0 front end and the language registry hold the determinism
	// rules (no wall clock, no map-order iteration, balanced scratch)
	// with zero suppressions, so they stay pass packages.
	"internal/progen": true, // random-program generator: seeded, runs outside the pipeline
	"internal/suite":  true, // benchmark harness: measures time and renders tables
}

// isPassPackage reports whether pkgRel holds pass bodies subject to
// the determinism and scratch checks.
func isPassPackage(pkgRel string) bool {
	return strings.HasPrefix(pkgRel, "internal/") && !nonPassPackages[pkgRel]
}

// cfgOwners may write Succs/Preds directly: ir defines the helpers,
// cfg is the dedicated CFG-surgery toolkit (its entry points mark the
// mutation themselves).
var cfgOwners = map[string]bool{
	"internal/ir":  true,
	"internal/cfg": true,
}

// analysisOwners may call the analysis constructors: the cache builds
// through them, and cfg defines (and composes) them.
var analysisOwners = map[string]bool{
	"internal/analysis": true,
	"internal/cfg":      true,
}

// File lints one parsed file belonging to the module-relative package
// pkgRel (e.g. "internal/gvn").
func File(fset *token.FileSet, f *ast.File, pkgRel string) []Diagnostic {
	c := &checker{fset: fset, pkgRel: pkgRel, ignores: directives(fset, f)}
	if !cfgOwners[pkgRel] {
		c.checkCFGWrites(f)
	}
	if pkgRel != "internal/ir" {
		c.checkIRConstruct(f)
	}
	if !analysisOwners[pkgRel] && !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
		c.checkAnalysisBuild(f)
	}
	if isPassPackage(pkgRel) {
		c.checkTimeNow(f)
		c.checkMapOrder(f)
		c.checkScratch(f)
	}
	sort.Slice(c.diags, func(i, j int) bool {
		a, b := c.diags[i].Pos, c.diags[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return c.diags
}

// Dir parses and lints every non-test .go file in one directory.
// pkgRel is the directory's module-relative path.
func Dir(dir, pkgRel string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	// Package names sorted so the output order never depends on map
	// iteration (the linter holds itself to its own rules).
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		files := make([]string, 0, len(pkgs[name].Files))
		for fname := range pkgs[name].Files {
			files = append(files, fname)
		}
		sort.Strings(files)
		for _, fname := range files {
			diags = append(diags, File(fset, pkgs[name].Files[fname], pkgRel)...)
		}
	}
	return diags, nil
}

// Tree walks the module rooted at root and lints every package
// directory (skipping testdata, vendored and hidden trees).
func Tree(root string) ([]Diagnostic, error) {
	var diags []Diagnostic
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		hasGo := false
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ds, err := Dir(path, filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		diags = append(diags, ds...)
		return nil
	})
	return diags, err
}

type checker struct {
	fset    *token.FileSet
	pkgRel  string
	ignores map[int]map[string]bool // line → suppressed checks
	diags   []Diagnostic
}

// directives collects //lint:ignore CHECK reason comments.  A
// directive suppresses its check on the comment's own line and on the
// line immediately below (covering both trailing and leading styles).
func directives(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	ignores := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "lint:ignore ") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore "))
			if len(fields) < 2 {
				continue // no reason given: directive does not apply
			}
			line := fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if ignores[l] == nil {
					ignores[l] = map[string]bool{}
				}
				ignores[l][fields[0]] = true
			}
		}
	}
	return ignores
}

func (c *checker) report(pos token.Pos, check, format string, args ...any) {
	p := c.fset.Position(pos)
	if c.ignores[p.Line][check] {
		return
	}
	c.diags = append(c.diags, Diagnostic{Pos: p, Check: check, Message: fmt.Sprintf(format, args...)})
}

// checkCFGWrites flags direct writes to a block's Succs/Preds edge
// lists (assignment, indexed assignment, or append-into) outside the
// CFG-owning packages.
func (c *checker) checkCFGWrites(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if name := edgeListTarget(lhs); name != "" {
				c.report(lhs.Pos(), "cfgwrite",
					"direct write to %s outside internal/ir and internal/cfg; use ir.AddEdge/ir.RemoveEdge or the cfg helpers so the CFG generation is bumped", name)
			}
		}
		return true
	})
}

// edgeListTarget returns "X.Succs"-style text when the expression
// names a block edge list (directly or via an index), else "".
func edgeListTarget(e ast.Expr) string {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Succs" && sel.Sel.Name != "Preds") {
		return ""
	}
	if x, ok := sel.X.(*ast.Ident); ok {
		return x.Name + "." + sel.Sel.Name
	}
	return "(...)." + sel.Sel.Name
}

// checkTimeNow flags wall-clock reads in pass bodies.
func (c *checker) checkTimeNow(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" &&
			(sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
			c.report(call.Pos(), "timenow",
				"time.%s in a pass body: pass behavior must be reproducible; timing belongs in the pass manager's OnPass hook", sel.Sel.Name)
		}
		return true
	})
}
