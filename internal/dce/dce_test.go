package dce_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/dce"
	"repro/internal/interp"
	"repro/internal/ir"
)

func countInstrs(f *ir.Func) int { return f.InstrCount() }

func TestRemovesDeadChain(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    add r1, r2 => r3
    mul r3, r3 => r4
    add r4, r2 => r5
    ret r1
}
`
	f := ir.MustParseFunc(src)
	st := dce.Run(f, analysis.NewCache(f))
	if st.Removed != 4 {
		t.Errorf("removed %d, want 4\n%s", st.Removed, f)
	}
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f}})
	v, err := m.Call("f", interp.IntVal(9))
	if err != nil || v.I != 9 {
		t.Errorf("got %v, %v", v, err)
	}
}

func TestKeepsStoresAndCalls(t *testing.T) {
	const src = `
program globalsize=16

func g(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    stw r1 => [r2]
    ret
}

func f(r1) {
b0:
    enter(r1)
    call g(r1) => r2
    loadI 0 => r3
    stw r1 => [r3]
    ret r1
}
`
	prog, err := ir.ParseProgramString(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	dce.Run(f, analysis.NewCache(f))
	stores, calls := 0, 0
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op.IsStore() {
			stores++
		}
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if stores != 1 || calls != 1 {
		t.Errorf("stores=%d calls=%d, want 1,1\n%s", stores, calls, f)
	}
}

func TestKeepsLiveThroughLoop(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 0 => r3
    jump -> b1
b1:
    loadI 1 => r4
    add r2, r4 => r2
    add r3, r2 => r3
    cmpLT r2, r1 => r5
    cbr r5 -> b1, b2
b2:
    ret r3
}
`
	f := ir.MustParseFunc(src)
	before := countInstrs(f)
	st := dce.Run(f, analysis.NewCache(f))
	if st.Removed != 0 {
		t.Errorf("removed %d live instructions (%d -> %d)\n%s", st.Removed, before, countInstrs(f), f)
	}
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f}})
	v, _ := m.Call("f", interp.IntVal(3))
	if v.I != 6 { // 1+2+3
		t.Errorf("got %d, want 6", v.I)
	}
}

func TestRemovesDeadLoad(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    ldw [r1] => r2
    ret r1
}
`
	f := ir.MustParseFunc(src)
	st := dce.Run(f, analysis.NewCache(f))
	if st.Removed != 1 {
		t.Errorf("dead load kept: %+v\n%s", st, f)
	}
}

func TestRemovesDeadPhi(t *testing.T) {
	const src = `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    loadI 2 => r3
    cbr r1 -> b1, b2
b1:
    jump -> b3
b2:
    jump -> b3
b3:
    phi r2, r3 => r4
    ret r1
}
`
	f := ir.MustParseFunc(src)
	st := dce.Run(f, analysis.NewCache(f))
	if st.Removed < 1 {
		t.Errorf("dead φ kept: %+v\n%s", st, f)
	}
	phis := 0
	f.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if in.Op == ir.OpPhi {
			phis++
		}
	})
	if phis != 0 {
		t.Errorf("φ survived\n%s", f)
	}
}
