package suite_test

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/suite"
)

// TestAllRoutinesAllLevels interprets every suite routine at every
// optimization level (plus unoptimized) and validates the result
// against the Go reference implementation.
func TestAllRoutinesAllLevels(t *testing.T) {
	levels := append([]core.Level{core.LevelNone}, core.Levels...)
	for _, r := range suite.All() {
		for _, level := range levels {
			if _, err := suite.RunRoutine(r, level); err != nil {
				t.Errorf("%s: %v", r.Name, err)
			}
		}
	}
}

// TestTable1Shape checks the paper's qualitative claims over the whole
// suite: PRE never loses to the baseline by more than noise, wins on
// average; reassociation+GVN adds improvement on average; occasional
// small per-routine regressions are expected (paper §4.2) but must
// stay small.
func TestTable1Shape(t *testing.T) {
	rows, err := suite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("suite too small: %d routines", len(rows))
	}
	var sumPartial, sumNew, sumTotal float64
	preWins := 0
	for _, r := range rows {
		sumPartial += r.PartialPct()
		sumNew += r.NewPct()
		sumTotal += r.TotalPct()
		if r.Partial < r.Baseline {
			preWins++
		}
		if r.TotalPct() < -10 {
			t.Errorf("%s: full pipeline regressed %0.f%% vs baseline (%d -> %d)",
				r.Name, -r.TotalPct(), r.Baseline, r.Dist)
		}
	}
	n := float64(len(rows))
	if sumPartial/n < 5 {
		t.Errorf("PRE should improve the baseline on average: got %.1f%%", sumPartial/n)
	}
	if sumNew/n < 1 {
		t.Errorf("reassociation+distribution+GVN should add improvement on average: got %.1f%%", sumNew/n)
	}
	if preWins < len(rows)*2/3 {
		t.Errorf("PRE should win on most routines: %d/%d", preWins, len(rows))
	}
	t.Logf("avg partial=%.1f%% avg new=%.1f%% avg total=%.1f%%", sumPartial/n, sumNew/n, sumTotal/n)
}

// TestExperimentsRoutineCount: the routine counts EXPERIMENTS.md
// states in its intro and its Substitutions table are the suite's,
// per front end.
func TestExperimentsRoutineCount(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	perLang := map[string]int{}
	for _, r := range suite.All() {
		l, err := lang.Detect(r.Source)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		perLang[l.Name]++
	}
	want := []int{len(suite.All()), perLang["mf"], perLang["pl0"], perLang["iloc"]}
	for _, pat := range []string{
		`we run (\d+) routines — (\d+) Mini-Fortran re-implementations \(same algorithms/idioms, smaller inputs\), (\d+) PL/0 programs and (\d+) ILOC routines`,
		`\| SPEC'89 \+ FMM sources \| (\d+) routines \(` + "`internal/suite`" + `\): (\d+) Mini-Fortran re-implementations with the same algorithms/idioms, (\d+) PL/0, (\d+) fuzzer-promoted ILOC \|`,
	} {
		m := regexp.MustCompile(pat).FindStringSubmatch(doc)
		if m == nil {
			t.Errorf("EXPERIMENTS.md no longer matches %q", pat)
			continue
		}
		got := make([]int, len(m)-1)
		for i, d := range m[1:] {
			got[i], _ = strconv.Atoi(d)
		}
		if !slices.Equal(got, want) {
			t.Errorf("EXPERIMENTS.md states %v routines (total, mf, pl0, iloc); the suite has %v:\n%s", got, want, m[0])
		}
	}
}

// TestTable2Expansion checks that forward propagation expands code by
// a factor comparable to the paper's Table 2 (1.0–2.5 per routine,
// ~1.27 in total).
func TestTable2Expansion(t *testing.T) {
	rows, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	var tb, ta int
	for _, r := range rows {
		e := r.Expansion()
		if e < 0.5 || e > 4.0 {
			t.Errorf("%s: expansion %.3f outside the plausible band", r.Name, e)
		}
		tb += r.Before
		ta += r.After
	}
	total := float64(ta) / float64(tb)
	if total < 0.8 || total > 2.5 {
		t.Errorf("total expansion %.3f far from the paper's 1.269", total)
	}
	t.Logf("total expansion: %.3f (paper: 1.269)", total)
}

// TestWriteTables smoke-tests the formatting helpers.
func TestWriteTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows1, err := suite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	suite.WriteTable1(os.Stderr, rows1)
	suite.WriteTable2(os.Stderr, rows2)
}
