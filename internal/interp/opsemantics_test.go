package interp_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/peephole"
	"repro/internal/sccp"
)

// TestFoldMatchesExecution checks, for every pure operation over a grid
// of constant operands, that compile-time folding (sccp and peephole)
// computes exactly what the interpreter computes.  This pins the three
// implementations of each operator's semantics to one another and
// exercises every arithmetic arm of all three packages.
func TestFoldMatchesExecution(t *testing.T) {
	intOps2 := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpMin, ir.OpMax,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE}
	intOps1 := []ir.Op{ir.OpNeg, ir.OpNot, ir.OpAbs, ir.OpI2F}
	fltOps2 := []ir.Op{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFMin, ir.OpFMax,
		ir.OpFCmpEQ, ir.OpFCmpNE, ir.OpFCmpLT, ir.OpFCmpLE, ir.OpFCmpGT, ir.OpFCmpGE}
	fltOps1 := []ir.Op{ir.OpFNeg, ir.OpSqrt, ir.OpFAbs, ir.OpF2I}

	intVals := []int64{0, 1, -1, 2, 7, -13, 63, 64, 1 << 40, -(1 << 40)}
	fltVals := []float64{0, 1, -1, 0.5, -2.25, 16, 1e10, -1e-10}

	same := func(a, b interp.Value) bool {
		if a.Float != b.Float {
			return false
		}
		if a.Float {
			return a.F == b.F || (a.F != a.F && b.F != b.F) // NaN == NaN here
		}
		return a.I == b.I
	}
	check := func(name string, build func(f *ir.Func) *ir.Instr) {
		t.Helper()
		mk := func() *ir.Func {
			f := ir.NewFunc("f", 0)
			b := f.Entry()
			ret := build(f)
			b.Append(b.Fn.NewInstr(ir.OpRet, ir.NoReg, ret.Dst))
			return f
		}
		run := func(f *ir.Func) (interp.Value, error) {
			m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f}})
			return m.Call("f")
		}
		plain, errPlain := run(mk())

		folded := mk()
		sccp.Run(context.Background(), folded, analysis.NewCache(folded))
		viaSccp, errSccp := run(folded)

		peeped := mk()
		peephole.Run(peeped, peephole.Options{})
		viaPeep, errPeep := run(peeped)

		if (errPlain == nil) != (errSccp == nil) || (errPlain == nil) != (errPeep == nil) {
			t.Errorf("%s: trap disagreement: plain=%v sccp=%v peep=%v", name, errPlain, errSccp, errPeep)
			return
		}
		if errPlain != nil {
			return // all trap consistently (e.g. division by zero)
		}
		if !same(plain, viaSccp) {
			t.Errorf("%s: sccp fold %v != execution %v", name, viaSccp, plain)
		}
		if !same(plain, viaPeep) {
			t.Errorf("%s: peephole fold %v != execution %v", name, viaPeep, plain)
		}
	}

	for _, op := range intOps2 {
		for _, a := range intVals {
			for _, b := range intVals {
				op, a, b := op, a, b
				check(fmt.Sprintf("%s(%d,%d)", op, a, b), func(f *ir.Func) *ir.Instr {
					blk := f.Entry()
					ra, rb, rc := f.NewReg(), f.NewReg(), f.NewReg()
					blk.Append(blk.Fn.NewLoadI(ra, a))
					blk.Append(blk.Fn.NewLoadI(rb, b))
					in := f.NewInstr(op, rc, ra, rb)
					blk.Append(in)
					return in
				})
			}
		}
	}
	for _, op := range intOps1 {
		for _, a := range intVals {
			op, a := op, a
			check(fmt.Sprintf("%s(%d)", op, a), func(f *ir.Func) *ir.Instr {
				blk := f.Entry()
				ra, rc := f.NewReg(), f.NewReg()
				blk.Append(blk.Fn.NewLoadI(ra, a))
				in := f.NewInstr(op, rc, ra)
				blk.Append(in)
				return in
			})
		}
	}
	for _, op := range fltOps2 {
		for _, a := range fltVals {
			for _, b := range fltVals {
				op, a, b := op, a, b
				check(fmt.Sprintf("%s(%g,%g)", op, a, b), func(f *ir.Func) *ir.Instr {
					blk := f.Entry()
					ra, rb, rc := f.NewReg(), f.NewReg(), f.NewReg()
					blk.Append(blk.Fn.NewLoadF(ra, a))
					blk.Append(blk.Fn.NewLoadF(rb, b))
					in := f.NewInstr(op, rc, ra, rb)
					blk.Append(in)
					return in
				})
			}
		}
	}
	for _, op := range fltOps1 {
		for _, a := range fltVals {
			op, a := op, a
			check(fmt.Sprintf("%s(%g)", op, a), func(f *ir.Func) *ir.Instr {
				blk := f.Entry()
				ra, rc := f.NewReg(), f.NewReg()
				blk.Append(blk.Fn.NewLoadF(ra, a))
				in := f.NewInstr(op, rc, ra)
				blk.Append(in)
				return in
			})
		}
	}
}

// buildAndRun assembles a single-block function whose body is produced
// by build (returning the register to ret) and interprets it.
func buildAndRun(t *testing.T, globalSize int64, build func(f *ir.Func) ir.Reg) (interp.Value, *interp.Machine, error) {
	t.Helper()
	f := ir.NewFunc("f", 0)
	ret := build(f)
	f.Entry().Append(f.Entry().Fn.NewInstr(ir.OpRet, ir.NoReg, ret))
	p := &ir.Program{Funcs: []*ir.Func{f}, GlobalSize: globalSize}
	m := interp.NewMachine(p)
	v, err := m.Call("f")
	return v, m, err
}

// TestCopySemantics pins copy: the destination receives exactly the
// source value, including its integer/float kind.
func TestCopySemantics(t *testing.T) {
	v, _, err := buildAndRun(t, 0, func(f *ir.Func) ir.Reg {
		b := f.Entry()
		ra, rc := f.NewReg(), f.NewReg()
		b.Append(b.Fn.NewLoadI(ra, -42))
		b.Append(b.Fn.NewInstr(ir.OpCopy, rc, ra))
		return rc
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Float || v.I != -42 {
		t.Errorf("copy of int -42: got %v", v)
	}
	v, _, err = buildAndRun(t, 0, func(f *ir.Func) ir.Reg {
		b := f.Entry()
		ra, rc := f.NewReg(), f.NewReg()
		b.Append(b.Fn.NewLoadF(ra, -2.25))
		b.Append(b.Fn.NewInstr(ir.OpCopy, rc, ra))
		return rc
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Float || v.F != -2.25 {
		t.Errorf("copy of float -2.25: got %v", v)
	}
}

// TestMemoryOpSemantics pins the load/store family over a value grid:
// stw/ldw round-trip 8-byte integers exactly, std/ldd round-trip
// float64 bit patterns exactly, and sts/lds narrow through float32 —
// lds(sts(x)) must equal float64(float32(x)) bit for bit.
func TestMemoryOpSemantics(t *testing.T) {
	const addr = 16
	roundTrip := func(store, load ir.Op, val interp.Value) (interp.Value, error) {
		t.Helper()
		v, _, err := buildAndRun(t, 64, func(f *ir.Func) ir.Reg {
			b := f.Entry()
			rv, rp, rc := f.NewReg(), f.NewReg(), f.NewReg()
			if val.Float {
				b.Append(b.Fn.NewLoadF(rv, val.F))
			} else {
				b.Append(b.Fn.NewLoadI(rv, val.I))
			}
			b.Append(b.Fn.NewLoadI(rp, addr))
			b.Append(b.Fn.NewInstr(store, ir.NoReg, rv, rp))
			b.Append(b.Fn.NewInstr(load, rc, rp))
			return rc
		})
		return v, err
	}

	intVals := []int64{0, 1, -1, 123, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	for _, want := range intVals {
		got, err := roundTrip(ir.OpStoreW, ir.OpLoadW, interp.Value{I: want})
		if err != nil {
			t.Fatalf("stw/ldw %d: %v", want, err)
		}
		if got.Float || got.I != want {
			t.Errorf("stw/ldw %d: got %v", want, got)
		}
	}

	fltVals := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e300, 5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, want := range fltVals {
		got, err := roundTrip(ir.OpStoreD, ir.OpLoadD, interp.Value{Float: true, F: want})
		if err != nil {
			t.Fatalf("std/ldd %g: %v", want, err)
		}
		if !got.Float || math.Float64bits(got.F) != math.Float64bits(want) {
			t.Errorf("std/ldd %g: got %v", want, got)
		}

		got, err = roundTrip(ir.OpStoreS, ir.OpLoadS, interp.Value{Float: true, F: want})
		if err != nil {
			t.Fatalf("sts/lds %g: %v", want, err)
		}
		narrowed := float64(float32(want))
		same := math.Float64bits(got.F) == math.Float64bits(narrowed) ||
			(math.IsNaN(got.F) && math.IsNaN(narrowed))
		if !got.Float || !same {
			t.Errorf("sts/lds %g: got %v, want %g", want, got, narrowed)
		}
	}
}

// TestMemoryOpBounds pins the trap semantics of every load and store:
// any access that is not wholly inside [0, GlobalSize) traps rather
// than reading or corrupting adjacent state.
func TestMemoryOpBounds(t *testing.T) {
	const size = 64
	ops := []struct {
		op    ir.Op
		width int64
	}{
		{ir.OpLoadW, 8}, {ir.OpLoadD, 8}, {ir.OpLoadS, 4},
		{ir.OpStoreW, 8}, {ir.OpStoreD, 8}, {ir.OpStoreS, 4},
	}
	for _, tc := range ops {
		for _, addr := range []int64{-8, -1, size - tc.width + 1, size, 1 << 32} {
			_, _, err := buildAndRun(t, size, func(f *ir.Func) ir.Reg {
				b := f.Entry()
				rv, rp, rc := f.NewReg(), f.NewReg(), f.NewReg()
				b.Append(b.Fn.NewLoadI(rc, 0))
				b.Append(b.Fn.NewLoadI(rp, addr))
				if tc.op.IsStore() {
					if tc.op == ir.OpStoreW {
						b.Append(b.Fn.NewLoadI(rv, 1))
					} else {
						b.Append(b.Fn.NewLoadF(rv, 1))
					}
					b.Append(b.Fn.NewInstr(tc.op, ir.NoReg, rv, rp))
				} else {
					b.Append(b.Fn.NewInstr(tc.op, rc, rp))
				}
				return rc
			})
			if err == nil {
				t.Errorf("%s at [%d..%d) in size-%d memory: want trap, got none",
					tc.op, addr, addr+tc.width, size)
			}
		}
	}
}

// TestOpSemanticsCoverage fails loudly when an operation is added to
// ir/op.go without execution-semantics coverage.  Every op returned by
// ir.Ops must be claimed by a test; an unclaimed op means this audit
// has a gap, and a claim for an op that no longer exists is stale.
func TestOpSemanticsCoverage(t *testing.T) {
	covered := map[ir.Op]string{
		// Pure value operations: folded-vs-executed grid above.
		ir.OpLoadI: "TestFoldMatchesExecution", ir.OpLoadF: "TestFoldMatchesExecution",
		ir.OpAdd: "TestFoldMatchesExecution", ir.OpSub: "TestFoldMatchesExecution",
		ir.OpMul: "TestFoldMatchesExecution", ir.OpDiv: "TestFoldMatchesExecution",
		ir.OpMod: "TestFoldMatchesExecution", ir.OpNeg: "TestFoldMatchesExecution",
		ir.OpAnd: "TestFoldMatchesExecution", ir.OpOr: "TestFoldMatchesExecution",
		ir.OpXor: "TestFoldMatchesExecution", ir.OpNot: "TestFoldMatchesExecution",
		ir.OpShl: "TestFoldMatchesExecution", ir.OpShr: "TestFoldMatchesExecution",
		ir.OpMin: "TestFoldMatchesExecution", ir.OpMax: "TestFoldMatchesExecution",
		ir.OpFAdd: "TestFoldMatchesExecution", ir.OpFSub: "TestFoldMatchesExecution",
		ir.OpFMul: "TestFoldMatchesExecution", ir.OpFDiv: "TestFoldMatchesExecution",
		ir.OpFNeg: "TestFoldMatchesExecution", ir.OpFMin: "TestFoldMatchesExecution",
		ir.OpFMax: "TestFoldMatchesExecution",
		ir.OpI2F:  "TestFoldMatchesExecution", ir.OpF2I: "TestFoldMatchesExecution",
		ir.OpSqrt: "TestFoldMatchesExecution", ir.OpFAbs: "TestFoldMatchesExecution",
		ir.OpAbs:   "TestFoldMatchesExecution",
		ir.OpCmpEQ: "TestFoldMatchesExecution", ir.OpCmpNE: "TestFoldMatchesExecution",
		ir.OpCmpLT: "TestFoldMatchesExecution", ir.OpCmpLE: "TestFoldMatchesExecution",
		ir.OpCmpGT: "TestFoldMatchesExecution", ir.OpCmpGE: "TestFoldMatchesExecution",
		ir.OpFCmpEQ: "TestFoldMatchesExecution", ir.OpFCmpNE: "TestFoldMatchesExecution",
		ir.OpFCmpLT: "TestFoldMatchesExecution", ir.OpFCmpLE: "TestFoldMatchesExecution",
		ir.OpFCmpGT: "TestFoldMatchesExecution", ir.OpFCmpGE: "TestFoldMatchesExecution",

		// Copies and memory: dedicated tests in this file.
		ir.OpCopy:  "TestCopySemantics",
		ir.OpLoadW: "TestMemoryOpSemantics", ir.OpLoadD: "TestMemoryOpSemantics",
		ir.OpLoadS:  "TestMemoryOpSemantics",
		ir.OpStoreW: "TestMemoryOpSemantics", ir.OpStoreD: "TestMemoryOpSemantics",
		ir.OpStoreS: "TestMemoryOpSemantics",

		// Control flow and linkage: interp_test.go.
		ir.OpRet:   "TestArithmetic (every fixture returns)",
		ir.OpJump:  "TestStepLimit, TestPhiExecution",
		ir.OpCBr:   "TestTraps (cbr on float), TestPhiExecution",
		ir.OpCall:  "TestTraps, TestCallDepthLimit, TestPrintBuiltin",
		ir.OpEnter: "TestTraps (parameter binding)",
		ir.OpPhi:   "TestPhiExecution",
	}
	for _, op := range ir.Ops() {
		if covered[op] == "" {
			t.Errorf("op %s has no semantics coverage; add a test and claim it here", op)
		}
	}
	ops := make(map[ir.Op]bool, len(covered))
	for _, op := range ir.Ops() {
		ops[op] = true
	}
	for op := range covered {
		if !ops[op] {
			t.Errorf("coverage table claims op %s, which ir.Ops no longer lists", op)
		}
	}
}
