package dataflow_test

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// mkSet builds a bitset of capacity n from a bitmask over the low 64.
func mkSet(n int, mask uint64) dataflow.BitSet {
	s := dataflow.NewBitSet(n)
	for i := 0; i < n && i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.Set(i)
		}
	}
	return s
}

// elems extracts a canonical slice form.
func elems(s dataflow.BitSet) []int {
	var out []int
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

func TestBitSetBasics(t *testing.T) {
	s := dataflow.NewBitSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Error("Set/Has broken")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Clear broken")
	}
	s.SetAll()
	if s.Count() != 130 {
		t.Errorf("SetAll count = %d, want 130", s.Count())
	}
	s.ClearAll()
	if !s.Empty() {
		t.Error("ClearAll broken")
	}
	if got := mkSet(10, 0b1010001).String(); got != "{0, 4, 6}" {
		t.Errorf("String = %s", got)
	}
}

// Property-based set laws via testing/quick.
func TestBitSetLaws(t *testing.T) {
	const n = 100
	cfgQ := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}

	// Union is commutative and idempotent; De Morgan-ish containment.
	if err := quick.Check(func(a, b uint64) bool {
		x, y := mkSet(n, a), mkSet(n, b)
		u1 := x.Copy()
		u1.Union(y)
		u2 := y.Copy()
		u2.Union(x)
		if !u1.Equal(u2) {
			return false
		}
		u3 := u1.Copy()
		u3.Union(u1)
		return u3.Equal(u1)
	}, cfgQ); err != nil {
		t.Error(err)
	}

	// Intersection distributes over union.
	if err := quick.Check(func(a, b, c uint64) bool {
		x, y, z := mkSet(n, a), mkSet(n, b), mkSet(n, c)
		l := y.Copy()
		l.Union(z)
		l.Intersect(x) // x ∩ (y ∪ z)
		r1 := x.Copy()
		r1.Intersect(y)
		r2 := x.Copy()
		r2.Intersect(z)
		r1.Union(r2) // (x∩y) ∪ (x∩z)
		return l.Equal(r1)
	}, cfgQ); err != nil {
		t.Error(err)
	}

	// Subtract then union restores a superset relationship.
	if err := quick.Check(func(a, b uint64) bool {
		x, y := mkSet(n, a), mkSet(n, b)
		d := x.Copy()
		d.Subtract(y)
		// d ∩ y = ∅
		chk := d.Copy()
		chk.Intersect(y)
		if !chk.Empty() {
			return false
		}
		// d ∪ (x∩y) = x
		xy := x.Copy()
		xy.Intersect(y)
		d.Union(xy)
		return d.Equal(x)
	}, cfgQ); err != nil {
		t.Error(err)
	}

	// Count agrees with ForEach.
	if err := quick.Check(func(a uint64) bool {
		x := mkSet(n, a)
		return x.Count() == len(elems(x))
	}, cfgQ); err != nil {
		t.Error(err)
	}
}

// The same laws hold for the rows of a matrix whose row width is not a
// multiple of 64: an operation on row i reads and writes row i alone,
// and Count stays exact.
func TestBitMatrixRowIsolation(t *testing.T) {
	const n = 100 // two words per row, the second partly used
	cfgQ := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	ops := []struct {
		name string
		op   func(row, x, y dataflow.BitSet)
		want func(row, x, y dataflow.BitSet) int // the row's count afterwards
	}{
		{"SetAll", func(row, _, _ dataflow.BitSet) { row.SetAll() },
			func(_, _, _ dataflow.BitSet) int { return n }},
		{"ClearAll", func(row, _, _ dataflow.BitSet) { row.ClearAll() },
			func(_, _, _ dataflow.BitSet) int { return 0 }},
		{"Subtract", func(row, x, _ dataflow.BitSet) { row.Subtract(x) },
			func(row, x, _ dataflow.BitSet) int { return andNotCount(row, x) }},
		{"CopyFrom", func(row, x, _ dataflow.BitSet) { row.CopyFrom(x) },
			func(_, x, _ dataflow.BitSet) int { return x.Count() }},
		{"AndNotOf", func(row, x, y dataflow.BitSet) { row.AndNotOf(x, y) },
			func(_, x, y dataflow.BitSet) int { return andNotCount(x, y) }},
	}
	for _, o := range ops {
		for _, full := range []bool{false, true} {
			if err := quick.Check(func(a, b, c uint64) bool {
				m := dataflow.NewBitMatrix(5, n)
				if full {
					m.SetAll()
				}
				x, y := mkSet(n, a), mkSet(n, b)
				x.Set(n - 1) // the last bit of a partly used word
				row := m.Row(2)
				row.CopyFrom(mkSet(n, c))
				want := o.want(row, x, y)
				before := []dataflow.BitSet{m.Row(1).Copy(), m.Row(3).Copy()}
				o.op(row, x, y)
				return m.Row(1).Equal(before[0]) && m.Row(3).Equal(before[1]) &&
					row.Count() == want && len(elems(row)) == want
			}, cfgQ); err != nil {
				t.Errorf("%s (neighbours full: %v): %v", o.name, full, err)
			}
		}
	}
}

// andNotCount returns |x ∖ y|.
func andNotCount(x, y dataflow.BitSet) int {
	d := x.Copy()
	d.Subtract(y)
	return d.Count()
}

// A store that is Reset hands out zeroed rows again, whatever the rows
// it handed out before held.
func TestFamilyStoreResetZeroes(t *testing.T) {
	var s dataflow.FamilyStore
	for round := range 3 {
		m, v := s.Family(4, 70), s.Set(70)
		for i := range m.Rows() {
			if !m.Row(i).Empty() {
				t.Fatalf("round %d: row %d = %s, want empty", round, i, m.Row(i))
			}
		}
		if !v.Empty() {
			t.Fatalf("round %d: set = %s, want empty", round, v)
		}
		m.SetAll()
		v.SetAll()
		s.Reset()
	}
}

// Resize keeps the rows it keeps and adds empty ones, also where it
// grows into storage an earlier shrink left behind.
func TestBitMatrixResize(t *testing.T) {
	const n = 70
	m := dataflow.NewBitMatrix(3, n)
	for i := range 3 {
		m.Row(i).Set(i)
		m.Row(i).Set(n - 1)
	}
	m.Resize(2)
	m.Resize(6)
	if m.Rows() != 6 {
		t.Fatalf("Rows = %d, want 6", m.Rows())
	}
	for i := range 6 {
		want := "{}"
		if i < 2 {
			want = "{" + strconv.Itoa(i) + ", 69}"
		}
		if got := m.Row(i).String(); got != want {
			t.Errorf("row %d = %s, want %s", i, got, want)
		}
	}
}

// The rows Refresh adds for new blocks leave the old blocks' rows as
// they were, and describe the new block as a universe built afresh
// does.
func TestRefreshAddedRows(t *testing.T) {
	f, u, byName := universeFor(t, solveDiamond)
	props := func(u *dataflow.Universe) []dataflow.BitMatrix {
		return []dataflow.BitMatrix{u.Transp, u.AntLoc, u.Comp}
	}
	var before []string
	for _, m := range props(u) {
		for _, b := range f.Blocks {
			before = append(before, m.Row(b.ID).String())
		}
	}
	nb := len(f.Blocks)
	mid := cfg.SplitEdge(byName["b1"], byName["b3"])
	u.Refresh([]*ir.Block{mid})
	fresh := dataflow.BuildUniverse(f, nil)
	for p, m := range props(u) {
		if m.Rows() != len(f.Blocks) {
			t.Fatalf("property %d has %d rows, want %d", p, m.Rows(), len(f.Blocks))
		}
		for i, b := range f.Blocks[:nb] {
			if got, want := m.Row(b.ID).String(), before[p*nb+i]; got != want {
				t.Errorf("property %d of %s = %s after Refresh, was %s", p, b.Name, got, want)
			}
		}
		if got, want := m.Row(mid.ID).String(), props(fresh)[p].Row(mid.ID).String(); got != want {
			t.Errorf("property %d of the new block = %s, a rebuild says %s", p, got, want)
		}
	}
}

func TestLiveness(t *testing.T) {
	// b0: r3 = r1+r2; cbr r3 -> b1 b2
	// b1: r4 = r1+r1; jump b3
	// b2: r4 = r2+r2; jump b3
	// b3: ret r4        — r4 live into b3; r1 live into b1; r2 into b2.
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    cbr r3 -> b1, b2
b1:
    add r1, r1 => r4
    jump -> b3
b2:
    add r2, r2 => r4
    jump -> b3
b3:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	lv := dataflow.ComputeLiveness(f, cfg.ReversePostorder(f))
	byName := map[string]*ir.Block{}
	for _, b := range f.Blocks {
		byName[b.Name] = b
	}
	check := func(block string, reg ir.Reg, wantIn bool) {
		t.Helper()
		if got := lv.LiveIn.Row(byName[block].ID).Has(int(reg)); got != wantIn {
			t.Errorf("LiveIn[%s][r%d] = %v, want %v", block, reg, got, wantIn)
		}
	}
	check("b3", 4, true)
	check("b3", 1, false)
	check("b1", 1, true)
	check("b1", 2, false)
	check("b2", 2, true)
	check("b2", 1, false)
	check("b0", 1, true)
	check("b0", 2, true)
	check("b0", 3, false) // defined in b0
}

func TestLivenessPhi(t *testing.T) {
	// φ operands are live out of the corresponding predecessor only.
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    loadI 1 => r3
    jump -> b3
b2:
    loadI 2 => r4
    jump -> b3
b3:
    phi r3, r4 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	lv := dataflow.ComputeLiveness(f, cfg.ReversePostorder(f))
	byName := map[string]*ir.Block{}
	for _, b := range f.Blocks {
		byName[b.Name] = b
	}
	if !lv.LiveOut.Row(byName["b1"].ID).Has(3) {
		t.Error("r3 must be live out of b1 (φ use)")
	}
	if lv.LiveOut.Row(byName["b2"].ID).Has(3) {
		t.Error("r3 must not be live out of b2")
	}
	if lv.LiveIn.Row(byName["b3"].ID).Has(3) {
		t.Error("φ operands are not live-in to the φ's block")
	}
}

func TestExprKeyCanonicalization(t *testing.T) {
	f := ir.NewFunc("scratch", 0)
	a := f.NewInstr(ir.OpAdd, 5, 1, 2)
	b := f.NewInstr(ir.OpAdd, 6, 2, 1)
	ka, ok1 := dataflow.KeyOf(a)
	kb, ok2 := dataflow.KeyOf(b)
	if !ok1 || !ok2 || ka != kb {
		t.Errorf("commutative keys differ: %v vs %v", ka, kb)
	}
	s := f.NewInstr(ir.OpSub, 5, 1, 2)
	s2 := f.NewInstr(ir.OpSub, 6, 2, 1)
	ks, _ := dataflow.KeyOf(s)
	ks2, _ := dataflow.KeyOf(s2)
	if ks == ks2 {
		t.Error("sub keys must be order-sensitive")
	}
	if _, ok := dataflow.KeyOf(f.NewCopy(1, 2)); ok {
		t.Error("copies are not expressions")
	}
	if _, ok := dataflow.KeyOf(f.NewCall("f", ir.NoReg)); ok {
		t.Error("calls are not expressions")
	}
	if _, ok := dataflow.KeyOf(f.NewInstr(ir.OpLoadW, 3, 1)); !ok {
		t.Error("loads are expressions (with memory kills)")
	}
}

func TestUniverseLocalProperties(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    stw r3 => [r1]
    ldw [r1] => r4
    copy r4 => r1
    add r1, r2 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	u := dataflow.BuildUniverse(f, nil)
	idx := func(op ir.Op, a, b ir.Reg) int {
		k, _ := dataflow.KeyOf(f.NewInstr(op, 99, a, b))
		e, ok := u.Lookup(k)
		if !ok {
			t.Fatalf("expression %v not in universe", k)
		}
		return e
	}
	add := idx(ir.OpAdd, 1, 2)
	ld := idx(ir.OpLoadW, 1, ir.NoReg)
	bid := f.Entry().ID
	// add r1,r2 is computed before any kill → ANTLOC; recomputed after
	// the copy redefines r1, so the *last* computation leaves it
	// available → COMP; r1 is redefined → not transparent.
	if !u.AntLoc.Row(bid).Has(add) {
		t.Error("add should be locally anticipatable")
	}
	if !u.Comp.Row(bid).Has(add) {
		t.Error("add should be locally available (recomputed after kill)")
	}
	if u.Transp.Row(bid).Has(add) {
		t.Error("add must not be transparent (r1 redefined)")
	}
	// The load is computed after a store; stores kill loads, but this
	// load comes after the store and survives until the copy kills its
	// address... the copy defines r1 which is the load's address.
	if u.Transp.Row(bid).Has(ld) {
		t.Error("load must not be transparent (store + address redef)")
	}
	if u.AntLoc.Row(bid).Has(ld) {
		t.Error("load follows a store: not upward-exposed")
	}
}
