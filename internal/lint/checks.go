package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// checkMapOrder flags range loops over (locally inferable) map values
// whose bodies feed an ordered sink: appending to a slice that is
// never subsequently sorted in the same function, or printing/writing
// directly.  The canonical deterministic idiom — collect keys, sort,
// iterate the sorted slice — passes, because the appended-to slice is
// an argument of a sort call later in the function.
//
// Map-typed expressions are inferred syntactically, without go/types:
// identifiers bound by `make(map[...]...)`, map composite literals,
// `var x map[...]...` declarations, and function parameters declared
// with a map type.  Maps hidden behind struct fields or function
// results are invisible to the check — a deliberate trade for a
// stdlib-only linter; the named-type cases are the ones that occur in
// pass bodies.
func (c *checker) checkMapOrder(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		maps := mapIdents(fd)
		sorted := sortedArgs(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			x, ok := rs.X.(*ast.Ident)
			if !ok || !maps[x.Name] {
				return true
			}
			c.inspectMapRangeBody(rs, x.Name, sorted)
			return true
		})
	}
}

// mapIdents collects the names in fd that are locally known to be
// map-typed.
func mapIdents(fd *ast.FuncDecl) map[string]bool {
	maps := map[string]bool{}
	bind := func(names []*ast.Ident, typ ast.Expr) {
		if _, ok := typ.(*ast.MapType); ok {
			for _, n := range names {
				maps[n.Name] = true
			}
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			bind(field.Names, field.Type)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) && len(n.Rhs) != 1 {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				switch r := rhs.(type) {
				case *ast.CallExpr:
					if fn, ok := r.Fun.(*ast.Ident); ok && fn.Name == "make" && len(r.Args) > 0 {
						if _, ok := r.Args[0].(*ast.MapType); ok {
							maps[id.Name] = true
						}
					}
				case *ast.CompositeLit:
					if _, ok := r.Type.(*ast.MapType); ok {
						maps[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			bind(n.Names, n.Type)
		}
		return true
	})
	return maps
}

// sortedArgs collects identifier names that appear as arguments to a
// sort.* call anywhere in fd — slices that the function does put into
// canonical order.
func sortedArgs(fd *ast.FuncDecl) map[string]bool {
	sorted := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "sort" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				sorted[id.Name] = true
			}
		}
		return true
	})
	return sorted
}

// inspectMapRangeBody reports ordered sinks inside one range-over-map
// body.
func (c *checker) inspectMapRangeBody(rs *ast.RangeStmt, mapName string, sorted map[string]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && len(call.Args) > 0 {
				if dst, ok := call.Args[0].(*ast.Ident); ok && !sorted[dst.Name] {
					c.report(call.Pos(), "maporder",
						"append to %q inside range over map %q: iteration order leaks into the slice; sort it afterwards or collect+sort keys first", dst.Name, mapName)
				}
			}
		case *ast.SelectorExpr:
			if isOutputCall(fun) {
				c.report(call.Pos(), "maporder",
					"%s inside range over map %q: output depends on map iteration order", fun.Sel.Name, mapName)
			}
		}
		return true
	})
}

// isOutputCall recognizes printing/writing selectors: fmt.*Print*,
// and Write/WriteString/WriteByte/WriteRune methods.
func isOutputCall(sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	if x, ok := sel.X.(*ast.Ident); ok && x.Name == "fmt" {
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf", "Sprint", "Sprintln", "Sprintf":
			return name[0] != 'S' // Sprint into a local is judged at its own sink
		}
		return false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// checkIRConstruct flags direct construction of ir.Instr values —
// composite literals (`ir.Instr{...}`, `&ir.Instr{...}`, `[]ir.Instr`
// element literals) and `new(ir.Instr)` — outside internal/ir.  Since
// the arena refactor, instructions live in their function's chunked
// arena and carry a private dense InstrID; a bare literal has no
// identity (ID() reports NoInstr) and the block mutators reject it at
// the first Append/InsertAt.  Construction must go through a Func's
// allocators: NewInstr, NewLoadI/NewLoadF, NewCopy, NewCall, NewPhi,
// or CloneInstr.
//
// The ir package is resolved through the file's actual import spec, so
// aliased imports are still caught and unrelated packages that happen
// to export an Instr type are not.
func (c *checker) checkIRConstruct(f *ast.File) {
	irName := importLocalName(f, "repro/internal/ir")
	if irName == "" {
		return
	}
	isIRInstr := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Instr" {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == irName
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isIRInstr(n.Type) {
				c.report(n.Pos(), "irconstruct",
					"%s.Instr composite literal outside internal/ir: arena instructions must come from a Func allocator (NewInstr, NewLoadI, NewCopy, NewCall, NewPhi, CloneInstr) so they carry a valid InstrID", irName)
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "new" && len(n.Args) == 1 && isIRInstr(n.Args[0]) {
				c.report(n.Pos(), "irconstruct",
					"new(%s.Instr) outside internal/ir: arena instructions must come from a Func allocator so they carry a valid InstrID", irName)
			}
		}
		return true
	})
}

// analysisBuilders are the constructors behind analysis.Cache's
// getters, by import path.
var analysisBuilders = []struct {
	path  string
	names []string
}{
	{"repro/internal/cfg", []string{"ReversePostorder", "BuildDomTree", "FindLoops"}},
	{"repro/internal/dataflow", []string{"ComputeLiveness"}},
}

// checkAnalysisBuild flags direct calls to the analysis constructors:
// outside the cache a build is neither memoized nor counted.  Packages
// are resolved through the file's import specs, as in
// checkIRConstruct.
func (c *checker) checkAnalysisBuild(f *ast.File) {
	builders := map[string][]string{} // local package name → constructors
	for _, b := range analysisBuilders {
		if name := importLocalName(f, b.path); name != "" {
			builders[name] = b.names
		}
	}
	if len(builders) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(builders[x.Name], sel.Sel.Name) {
			c.report(call.Pos(), "analysisbuild",
				"%s.%s outside internal/analysis: ask the pass's analysis.Cache, which memoizes the result and counts the build", x.Name, sel.Sel.Name)
		}
		return true
	})
}

// importLocalName returns the name the file uses for the given import
// path ("" when the file does not import it): the alias when one is
// given, otherwise the path's last element.
func importLocalName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "" // not referenced by selector; dot imports don't occur here
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

// borrowKinds maps the arena borrow methods to their release
// counterparts.
var borrowKinds = map[string]string{
	"BorrowInts":   "ReturnInts",
	"BorrowRegs":   "ReturnRegs",
	"BorrowBlocks": "ReturnBlocks",
	"BorrowBools":  "ReturnBools",
}

// checkScratch enforces the arena discipline per function: every
// Borrow* result must be bound to a variable, and that variable must
// either be passed to the matching Return* call (directly or in a
// defer) or handed to the caller via a return statement (ownership
// transfer — the caller releases, as canonicalDsts in internal/pre
// does).
func (c *checker) checkScratch(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		type borrow struct {
			pos  token.Pos
			kind string // Borrow method name
		}
		borrowed := map[string]borrow{}
		released := map[string]bool{}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				id, ok := n.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				if kind := borrowCallKind(n.Rhs[0]); kind != "" {
					borrowed[id.Name] = borrow{pos: n.Pos(), kind: kind}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				for _, ret := range borrowKinds {
					if sel.Sel.Name == ret && len(n.Args) == 1 {
						if id, ok := n.Args[0].(*ast.Ident); ok {
							released[id.Name] = true
						}
					}
				}
				// A bare Borrow call whose result is not assigned can
				// never be returned to the arena.
				if kind := borrowCallKind(n); kind != "" && !isAssignedBorrow(fd.Body, n) {
					c.report(n.Pos(), "scratch",
						"%s result is not bound to a variable, so it can never be released", kind)
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					ast.Inspect(res, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							released[id.Name] = true // ownership transfer
						}
						return true
					})
				}
			}
			return true
		})

		names := make([]string, 0, len(borrowed))
		for name := range borrowed {
			names = append(names, name)
		}
		// Canonical report order (the linter obeys its own maporder rule).
		sort.Strings(names)
		for _, name := range names {
			b := borrowed[name]
			if !released[name] {
				c.report(b.pos, "scratch",
					"%q borrowed via %s is never released; defer the matching %s or return it to transfer ownership", name, b.kind, borrowKinds[b.kind])
			}
		}
	}
}

// borrowCallKind returns the Borrow* method name when e is a call to
// one (possibly re-sliced, as in `ac.BorrowBlocks(n)[:0]`), else "".
func borrowCallKind(e ast.Expr) string {
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = sl.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if _, ok := borrowKinds[sel.Sel.Name]; ok {
		return sel.Sel.Name
	}
	return ""
}

// isAssignedBorrow reports whether the given borrow call expression is
// the right-hand side of some single-assignment in body (directly or
// under a re-slice).
func isAssignedBorrow(body *ast.BlockStmt, target *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		rhs := as.Rhs[0]
		if sl, ok := rhs.(*ast.SliceExpr); ok {
			rhs = sl.X
		}
		if rhs == target {
			found = true
		}
		return true
	})
	return found
}
