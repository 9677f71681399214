package dataflow_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/progen"
)

// TestKillScanMatchesBruteForce checks the per-register kill lists
// against the definition they replace — scan every expression, clear
// those reading dst, and every load on a memory write — for every
// instruction of generated programs, from random valid sets, on the
// full universe and on a random restriction of it.
func TestKillScanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, src := range progen.Corpus(1, 40) {
		prog, err := ir.ParseProgramString(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Funcs {
			full := dataflow.BuildUniverse(f, nil)
			var ids []int32
			for e := range full.NumExprs() {
				if rng.Intn(2) == 0 {
					ids = append(ids, int32(e))
				}
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, u := range []*dataflow.Universe{full, full.Restrict(ids, nil)} {
				n := u.NumExprs()
				f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
					for _, memWrite := range []bool{false, true} {
						got, want := dataflow.NewBitSet(n), dataflow.NewBitSet(n)
						for e := range n {
							if rng.Intn(3) != 0 {
								got.Set(e)
								want.Set(e)
							}
						}
						u.KillScan(got, in.Dst, memWrite)
						for e, k := range u.Keys {
							if (in.Dst != ir.NoReg && (k.A == in.Dst || k.B == in.Dst)) || (memWrite && u.IsLoad[e]) {
								want.Clear(e)
							}
						}
						if !got.Equal(want) {
							t.Fatalf("%s: KillScan(%s, memWrite=%v) left %s, want %s", f.Name, in.Dst, memWrite, got, want)
						}
					}
				})
			}
		}
	}
}
