package pre

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// RunCheckingNames runs Drechsler's rounds on f as RunToFixpoint does
// and, after every round, hands check the canonical destinations the
// driver keeps and CanonicalDsts recomputed from scratch.
func RunCheckingNames(f *ir.Func, check func(round int, kept, fresh []ir.Reg)) {
	ac := analysis.NewCache(f)
	p := &driver{f: f, ac: ac, s: Drechsler}
	defer p.release()
	for round := 1; round <= Drechsler.maxRounds; round++ {
		st, ok := p.round()
		if !ok {
			return
		}
		kept := make([]ir.Reg, p.u.NumExprs())
		p.counts.names(kept)
		fresh := CanonicalDsts(f, p.u, ac)
		check(round, kept, fresh)
		ac.ReturnRegs(fresh)
		if !st.Changed() {
			return
		}
	}
}
