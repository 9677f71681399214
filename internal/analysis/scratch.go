package analysis

import "repro/internal/ir"

// scratch is the Cache's per-function arena of reusable worklist
// buffers.  Passes over one function run sequentially on one goroutine
// (the Cache contract), so a simple free-list per element type is
// enough: Borrow pops a zeroed buffer, Return pushes it back.  The
// arena survives across passes — the second pass that needs an
// RPO-sized []int gets the first pass's buffer instead of the
// allocator.
//
// Ownership rules (DESIGN.md §12): a borrowed buffer is owned until
// Returned, must not be retained across a Return, and must never
// escape the pass that borrowed it.  Returning is optional — a buffer
// that escapes analysis (or whose lifetime is unclear) is simply not
// Returned and becomes ordinary garbage.
type scratch struct {
	ints   freeList[int]
	regs   freeList[ir.Reg]
	blocks freeList[*ir.Block]
	bools  freeList[bool]
}

// freeList holds the returned buffers of one element type.
type freeList[T any] [][]T

// borrow pops the most recently returned buffer that holds n elements,
// zeroed and cut to length n, or allocates one.
func (l *freeList[T]) borrow(n int) []T {
	for i := len(*l) - 1; i >= 0; i-- {
		if buf := (*l)[i]; cap(buf) >= n {
			*l = append((*l)[:i], (*l)[i+1:]...)
			buf = buf[:n]
			clear(buf)
			return buf
		}
	}
	return make([]T, n)
}

// give pushes buf back; an empty buffer is dropped.
func (l *freeList[T]) give(buf []T) {
	if cap(buf) > 0 {
		*l = append(*l, buf)
	}
}

// BorrowInts returns a zeroed []int of length n from the arena.
func (c *Cache) BorrowInts(n int) []int { return c.scratch.ints.borrow(n) }

// ReturnInts gives a BorrowInts buffer back to the arena.
func (c *Cache) ReturnInts(buf []int) { c.scratch.ints.give(buf) }

// BorrowRegs returns a zeroed []ir.Reg of length n from the arena.
func (c *Cache) BorrowRegs(n int) []ir.Reg { return c.scratch.regs.borrow(n) }

// ReturnRegs gives a BorrowRegs buffer back to the arena.
func (c *Cache) ReturnRegs(buf []ir.Reg) { c.scratch.regs.give(buf) }

// BorrowBlocks returns a zeroed []*ir.Block of length n from the
// arena — the shape of postorder stacks and block worklists.
func (c *Cache) BorrowBlocks(n int) []*ir.Block { return c.scratch.blocks.borrow(n) }

// ReturnBlocks gives a BorrowBlocks buffer back to the arena.
func (c *Cache) ReturnBlocks(buf []*ir.Block) { c.scratch.blocks.give(buf) }

// BorrowBools returns a zeroed []bool of length n from the arena.
func (c *Cache) BorrowBools(n int) []bool { return c.scratch.bools.borrow(n) }

// ReturnBools gives a BorrowBools buffer back to the arena.
func (c *Cache) ReturnBools(buf []bool) { c.scratch.bools.give(buf) }
