package pre

import (
	"repro/internal/analysis"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// canonCounts are the counts the naming discipline's canonical
// destinations are decided from (see CanonicalDsts).  Every count is a
// sum over blocks, so a round takes a block's contribution out before
// it first changes the block (forget) and puts the block's new one
// back afterwards (count): a later round decides the names from what
// it touched, not from a walk of the whole function.
type canonCounts struct {
	u *dataflow.Universe // the full universe; its register slots index the slot counts

	// Per expression: its occurrences, a destination dst, and how many
	// of the occurrences compute into dst.  same == occ means every
	// occurrence shares dst; once the occurrences computing into dst
	// are gone (same == 0 < occ) dst is recounted from the others.
	occ  []int
	same []int
	dst  []ir.Reg

	// Per register slot: definitions, uses in a block that does not
	// define the register before them, and the walk (walks counts the
	// block walks) that last saw a definition.
	defs, nonLocal, definedIn []int
	walks                     int
}

// newCanonCounts returns empty counts over u's expressions, their
// per-expression tables borrowed from ac (see release).
func newCanonCounts(u *dataflow.Universe, ac *analysis.Cache) *canonCounts {
	n := u.NumExprs()
	c := &canonCounts{u: u}
	c.occ = ac.BorrowInts(n)
	c.same = ac.BorrowInts(n)
	c.dst = ac.BorrowRegs(n)
	c.fit(ac)
	return c
}

// fit widens the slot counts to every register slot u hands out now:
// a round's temporaries are registers the function did not name before.
func (c *canonCounts) fit(ac *analysis.Cache) {
	nr := c.u.NumRegSlots()
	if nr <= len(c.defs) {
		return
	}
	nr = max(nr, 2*len(c.defs))
	for _, p := range []*[]int{&c.defs, &c.nonLocal, &c.definedIn} {
		old := *p
		*p = ac.BorrowInts(nr)
		copy(*p, old)
		if old != nil {
			ac.ReturnInts(old)
		}
	}
}

// reset empties the counts, for a recount of the whole function.
func (c *canonCounts) reset(ac *analysis.Cache) {
	for _, p := range [][]int{c.occ, c.same, c.defs, c.nonLocal, c.definedIn} {
		clear(p)
	}
	clear(c.dst)
	c.walks = 0
	c.fit(ac)
}

// release returns the borrowed tables to ac.
func (c *canonCounts) release(ac *analysis.Cache) {
	for _, p := range [][]int{c.occ, c.same, c.defs, c.nonLocal, c.definedIn} {
		ac.ReturnInts(p)
	}
	ac.ReturnRegs(c.dst)
}

// count adds b's contribution.
func (c *canonCounts) count(b *ir.Block) { c.walk(b, 1) }

// forget takes b's contribution out; b must be as it was counted.
func (c *canonCounts) forget(b *ir.Block) { c.walk(b, -1) }

// walk adds b's contribution times sign.
func (c *canonCounts) walk(b *ir.Block, sign int) {
	u := c.u
	c.walks++
	for _, id := range b.Instrs {
		in := b.Fn.Instr(id)
		if e := u.Expr(in); e >= 0 {
			if sign > 0 && c.occ[e] == 0 {
				c.dst[e], c.same[e] = in.Dst, 0
			}
			c.occ[e] += sign
			if in.Dst == c.dst[e] {
				c.same[e] += sign
			}
		}
		if in.Op == ir.OpEnter {
			for _, p := range in.Args {
				if s := u.RegSlot(p); s >= 0 {
					c.defs[s] += sign
				}
			}
		} else {
			for _, a := range in.Args {
				if s := u.RegSlot(a); s >= 0 && c.definedIn[s] != c.walks {
					c.nonLocal[s] += sign
				}
			}
		}
		if s := u.RegSlot(in.Dst); s >= 0 {
			c.defs[s] += sign
			c.definedIn[s] = c.walks
		}
	}
}

// names fills canon with every expression's canonical destination, or
// NoReg: all occurrences share one destination t, t has no other
// definitions, t is not an operand of the expression, and every use of
// t is local to a block that defines it first (the §5.1 rule).
func (c *canonCounts) names(canon []ir.Reg) {
	u := c.u
	for e := range canon {
		canon[e] = ir.NoReg
		if c.occ[e] == 0 {
			continue
		}
		if c.same[e] == 0 {
			c.recount(e)
		}
		t := c.dst[e]
		if c.same[e] != c.occ[e] {
			continue // mixed destinations
		}
		k, s := u.Keys[e], u.RegSlot(t)
		if s < 0 || c.defs[s] != c.occ[e] || k.A == t || k.B == t || c.nonLocal[s] > 0 {
			continue
		}
		canon[e] = t
	}
}

// recount sets e's dst and same afresh from e's occurrences, read from
// the blocks that compute e.
func (c *canonCounts) recount(e int) {
	u := c.u
	c.same[e] = 0
	for _, b := range u.Fn.Blocks {
		if !u.Occurs(b, e) {
			continue
		}
		for _, id := range b.Instrs {
			if in := b.Fn.Instr(id); u.Expr(in) == e {
				if c.same[e] == 0 {
					c.dst[e] = in.Dst
				}
				if in.Dst == c.dst[e] {
					c.same[e]++
				}
			}
		}
	}
}

// CanonicalDsts finds, for each expression, the naming-discipline
// canonical destination register, or NoReg when the conditions fail:
// all occurrences share one destination t, t has no other definitions,
// t is not an operand of the expression, and every use of t is local to
// a block that defines it first (the §5.1 rule).  Deleting an
// occurrence whose value is already in t is then always safe.  The
// occurrences come from the universe's instruction index, and the
// per-register state is sized by the registers the function names.  The
// returned slice is borrowed from the cache's arena; the caller returns
// it with ReturnRegs.
func CanonicalDsts(f *ir.Func, u *dataflow.Universe, ac *analysis.Cache) []ir.Reg {
	c := newCanonCounts(u, ac)
	defer c.release(ac)
	for _, b := range f.Blocks {
		c.count(b)
	}
	canon := ac.BorrowRegs(u.NumExprs())
	c.names(canon)
	return canon
}
