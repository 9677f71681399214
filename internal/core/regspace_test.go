package core_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/sccp"
)

// diamondChain renders a function of n if/else diamonds in sequence,
// 3n+4 blocks in all.  Each diamond header recomputes a foldable
// constant chain (2+3, then ×2) and branches on a non-constant compare;
// both arms update an accumulator through copies, and the exit branch
// tests a constant compare.
func diamondChain(n int) string {
	var sb strings.Builder
	sb.WriteString("func f(r1) {\nb0:\n    enter(r1)\n    loadI 2 => r2\n    loadI 3 => r3\n    copy r1 => r4\n    jump -> b1\n")
	for i := range n {
		h, r := 3*i+1, 10+10*i
		fmt.Fprintf(&sb, "b%d:\n    add r2, r3 => r%d\n    mul r%d, r2 => r%d\n    add r%d, r1 => r%d\n    cmpLT r4, r%d => r%d\n    cbr r%d -> b%d, b%d\n",
			h, r, r, r+1, r+1, r+2, r+2, r+3, r+3, h+1, h+2)
		fmt.Fprintf(&sb, "b%d:\n    copy r4 => r%d\n    add r%d, r%d => r4\n    jump -> b%d\n",
			h+1, r+4, r+4, r+1, h+3)
		fmt.Fprintf(&sb, "b%d:\n    copy r%d => r%d\n    sub r4, r%d => r%d\n    copy r%d => r4\n    jump -> b%d\n",
			h+2, r+1, r+5, r+5, r+6, r+6, h+3)
	}
	e := 3*n + 1
	fmt.Fprintf(&sb, "b%d:\n    cmpGT r3, r2 => r5\n    cbr r5 -> b%d, b%d\nb%d:\n    ret r4\nb%d:\n    ret r1\n}\n",
		e, e+1, e+2, e+1, e+2)
	return sb.String()
}

// allocated reports the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTailPassStateIgnoresUnusedRegisters pads a 25-block function with
// 20000 register numbers no instruction mentions — the sparse numbering
// SSA round trips leave behind — and runs SCCP, coalescing and each PRE
// strategy on it.  The output must be byte-identical to the unpadded
// run (once the registers PRE creates, numbered after the padding, are
// shifted back), and the bytes the pass allocates must stay within a
// bound that state sized by f.NumRegs() exceeds.  The liveness
// coalescing consumes is an analysis sized by f.NumRegs() for every
// client, so its builds are subtracted.  SCCP's and PRE's bounds leave
// room for their one borrowed int per register (the dense index of
// SCCP's lattice and of PRE's expression universe; in a pipeline the
// analysis arena recycles it), against the blocks × registers lattice
// cells, and the per-round register tables, they would otherwise need.
func TestTailPassStateIgnoresUnusedRegisters(t *testing.T) {
	const pad = 20000
	src := diamondChain(7)
	for _, tc := range []struct {
		pass  string
		bound uint64
	}{
		{"sccp", 1 << 20},
		{"coalesce", 64 << 10},
		{"pre", 320 << 10},
		{"pre-lcm", 320 << 10},
		{"pre-lospre", 320 << 10},
	} {
		t.Run(tc.pass, func(t *testing.T) {
			p, err := core.PassByName(tc.pass)
			if err != nil {
				t.Fatal(err)
			}
			run := func(f *ir.Func, ac *analysis.Cache) (mutated bool) {
				gen := f.CodeGeneration()
				p.Run(&core.PassContext{Ctx: context.Background(), Func: f, Analyses: ac})
				return f.CodeGeneration() != gen
			}
			plain := ir.MustParseFunc(src)
			if !run(plain, analysis.NewCache(plain)) {
				t.Fatalf("%s changed nothing on the test function", tc.pass)
			}

			padded := ir.MustParseFunc(src)
			fresh := padded.NumRegs()
			for range pad {
				padded.NewReg()
			}
			livenessBytes := allocated(func() { dataflow.ComputeLiveness(padded, cfg.ReversePostorder(padded)) })
			var ac *analysis.Cache
			total := allocated(func() {
				ac = analysis.NewCache(padded)
				run(padded, ac)
			})
			liveness := ac.Counts().Liveness * livenessBytes

			// Registers a pass creates (PRE's temporaries) are numbered
			// after the padding; shift them back before comparing.
			padded.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
				if in.Dst >= ir.Reg(fresh+pad) {
					in.Dst -= pad
				}
				for i, a := range in.Args {
					if a >= ir.Reg(fresh+pad) {
						in.Args[i] = a - pad
					}
				}
			})
			if got, want := padded.String(), plain.String(); got != want {
				t.Fatalf("padding changed the output:\n%s\nwant:\n%s", got, want)
			}
			t.Logf("%s: %d bytes allocated, %d of them in %d liveness builds", tc.pass, total, liveness, liveness/livenessBytes)
			if own := total - liveness; own > tc.bound {
				t.Errorf("%s allocated %d bytes beyond liveness (%d total) on %d blocks × %d registers, bound %d",
					tc.pass, own, total, len(padded.Blocks), padded.NumRegs(), tc.bound)
			}
		})
	}
}

// TestSCCPStateIgnoresBlockLocalRegisters pads a 79-block function
// with 20000 temporaries, each defined and read inside one block, and
// runs SCCP.  Only registers that carry a value into a block need a
// cell at each block entry, so the pass must allocate well under the
// blocks × temporaries cells a state over every named register needs
// (about 38 MB here), and it must fold exactly what it folds on the
// unpadded function.
func TestSCCPStateIgnoresBlockLocalRegisters(t *testing.T) {
	const pad, base = 20000, 300
	src := diamondChain(25)
	p, err := core.PassByName("sccp")
	if err != nil {
		t.Fatal(err)
	}
	run := func(f *ir.Func) (st sccp.Stats) {
		st, _ = p.Run(&core.PassContext{Ctx: context.Background(), Func: f, Analyses: analysis.NewCache(f)}).(sccp.Stats)
		return st
	}

	// Spread the temporaries over the blocks, just before each
	// terminator: loadI k => rT; copy rT => rSink.
	lines := strings.Split(src, "\n")
	var terms []int
	for i, l := range lines {
		if strings.HasPrefix(l, "    jump") || strings.HasPrefix(l, "    cbr") || strings.HasPrefix(l, "    ret") {
			terms = append(terms, i)
		}
	}
	padding := make(map[int][]string)
	isPad := make(map[string]bool)
	for k := range pad {
		at := terms[k%len(terms)]
		for _, l := range []string{fmt.Sprintf("    loadI %d => r%d", k, base+1+k), fmt.Sprintf("    copy r%d => r%d", base+1+k, base)} {
			padding[at] = append(padding[at], l)
			isPad[l] = true
		}
	}
	var sb strings.Builder
	for i, l := range lines {
		for _, p := range padding[i] {
			sb.WriteString(p + "\n")
		}
		sb.WriteString(l + "\n")
	}

	plain := ir.MustParseFunc(src)
	want := run(plain)
	if want.Folded == 0 {
		t.Fatal("sccp folded nothing on the test function")
	}
	padded := ir.MustParseFunc(sb.String())
	var got sccp.Stats
	total := allocated(func() { got = run(padded) })
	if got != want {
		t.Errorf("padding changed what sccp did: %+v, want %+v", got, want)
	}
	var kept []string
	for _, l := range strings.Split(padded.String(), "\n") {
		if !isPad[l] {
			kept = append(kept, l)
		}
	}
	if got, want := strings.Join(kept, "\n"), plain.String(); got != want {
		t.Errorf("padding changed the output:\n%s\nwant:\n%s", got, want)
	}
	t.Logf("sccp: %d bytes allocated on %d blocks × %d registers", total, len(padded.Blocks), padded.NumRegs())
	if total > 1<<20 {
		t.Errorf("sccp allocated %d bytes on %d blocks × %d registers, bound %d", total, len(padded.Blocks), padded.NumRegs(), 1<<20)
	}
}
