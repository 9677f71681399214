// Command epre is the reproduction driver: it compiles Mini-Fortran
// and PL/0, optimizes at the paper's levels, interprets with dynamic
// operation counting, and regenerates the paper's tables.
//
// Usage:
//
//	epre compile [-o out.iloc] file.{mf,pl0}           # source → ILOC
//	epre opt -level L [-o out.iloc] file.{mf,pl0,iloc} # optimize
//	epre run [-level L] -fn driver [-args 1,2] file.{mf,pl0,iloc}
//	epre lint [-level L | -passes p,..] file.{mf,pl0,iloc}  # checks
//	epre serve [-addr :8080]                       # optimization service
//	epre table1 [-parallel N]                      # the paper's Table 1
//	epre table2                                    # the paper's Table 2
//	epre fuzz [-seed 1] [-n 200] [-level all]      # differential fuzzing
//	epre example                                   # Figures 2–10 walkthrough
//	epre levels                                    # list levels and passes
//
// Setting EPRE_CHECK=1 in the environment makes every optimization
// (opt with -level or -passes, run, example, table1, table2) validate
// each pass application with the internal/check analyzers and fail
// loudly on a miscompile.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"flag"

	epre "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "compile":
		err = cmdCompile(args[1:], stdout)
	case "opt":
		err = cmdOpt(args[1:], stdout)
	case "run":
		err = cmdRun(args[1:], stdout)
	case "lint":
		return cmdLint(args[1:], stdout, stderr)
	case "serve":
		err = cmdServe(args[1:], stderr)
	case "fuzz":
		err = cmdFuzz(args[1:], stdout)
	case "table1":
		err = cmdTable1(args[1:], stdout)
	case "table2":
		err = cmdTable2(stdout)
	case "gvncompare":
		err = cmdGVNCompare(args[1:], stdout)
	case "precompare":
		err = cmdPreCompare(args[1:], stdout)
	case "example":
		err = cmdExample(stdout)
	case "levels":
		cmdLevels(stdout)
	case "-h", "--help", "help":
		usage(stdout)
	default:
		fmt.Fprintf(stderr, "epre: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "epre:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  epre compile [-o out.iloc] file.{mf,pl0}
  epre opt -level LEVEL [-o out.iloc] file.{mf,pl0,iloc}
  epre run [-level LEVEL] -fn NAME [-args a,b,...] file.{mf,pl0,iloc}
  epre lint [-level LEVEL | -passes a,b,...] [-discipline] [-strict-ssa]
            [-no-validate] file.{mf,pl0,iloc}
  epre serve [-addr :8080] [-workers N] [-queue N] [-cache N]
             [-timeout 30s] [-drain 10s] [-max-batch N]
             [-cache-dir DIR] [-disk-cache-bytes N] [-disk-fsync]
                     run the concurrent optimization service
  epre table1 [-parallel N] [-gvn awz|precise]
              [-pre drechsler|lcm|lospre] [-passstats]
              [-cpuprofile f] [-memprofile f]
                     regenerate the paper's Table 1 over the suite
  epre table2        regenerate the paper's Table 2 (code expansion)
  epre gvncompare [-parallel N]
                     compare the AWZ and precise GVN backends per
                     routine: congruence classes on identical SSA and
                     dynamic ops at the distribution level
  epre precompare [-parallel N]
                     compare the drechsler, lcm and lospre PRE backends
                     per routine: static insert/eliminate counts at the
                     PRE position and dynamic ops at the partial level
  epre fuzz [-seed N] [-n N] [-level L|all] [-workers N] [-shrink]
            [-artifact-dir DIR] [-per-pass] [-gvn-diff] [-pre-diff]
            [-call-heavy] [-timeout 5m] [-stats]
                     differential fuzzing: random programs vs. the
                     reference interpreter at every optimization level
                     (-gvn-diff additionally cross-checks the AWZ and
                     precise GVN backends against each other; -pre-diff
                     does the same for the drechsler, lcm and lospre
                     PRE backends)
  epre example       print the Figures 2-10 walkthrough
  epre levels        list optimization levels and passes`)
}

// load reads a program from a .mf (Mini-Fortran), .pl0, or .iloc
// file.  A known extension forces that language; anything else is
// detected from the source's leading keyword.
func load(path string) (*epre.Program, error) {
	p, err := loadIR(path)
	if err != nil {
		return nil, err
	}
	return epre.ParseILOC(p.String())
}

// loadIR reads the raw IR program (the lint subcommand works below
// the public facade), dispatching through the language registry.
func loadIR(path string) (*ir.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := ""
	if l := lang.ByExt(filepath.Ext(path)); l != nil {
		name = l.Name
	}
	prog, _, err := lang.Compile(string(data), name)
	return prog, err
}

func output(out string, text string) error {
	if out == "" || out == "-" {
		_, err := os.Stdout.WriteString(text)
		return err
	}
	return os.WriteFile(out, []byte(text), 0o644)
}

func cmdCompile(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("compile: need exactly one input file")
	}
	p, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *out == "" || *out == "-" {
		_, err := io.WriteString(stdout, p.ILOC())
		return err
	}
	return output(*out, p.ILOC())
}

func cmdOpt(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("opt", flag.ExitOnError)
	level := fs.String("level", "reassoc", "optimization level (baseline|partial|reassoc|dist)")
	passes := fs.String("passes", "", "comma-separated explicit pass list (overrides -level)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("opt: need exactly one input file")
	}
	p, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if *passes != "" {
		p, err = p.OptimizePasses(strings.Split(*passes, ",")...)
	} else {
		var lv epre.Level
		lv, err = epre.ParseLevel(*level)
		if err == nil {
			p, err = p.Optimize(lv)
		}
	}
	if err != nil {
		return err
	}
	if *out == "" || *out == "-" {
		_, err := io.WriteString(stdout, p.ILOC())
		return err
	}
	return output(*out, p.ILOC())
}

// cmdLint runs the semantic analyzers of internal/check.  Without
// -level/-passes it checks the input program statically; with them it
// applies the pass sequence in checked mode, validating every pass
// application (translation validation can be switched off with
// -no-validate).  Diagnostics go to stdout; the exit status is 1 when
// any error-severity diagnostic fired, 2 on usage errors.
func cmdLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	level := fs.String("level", "", "optimize at this level in checked mode, validating every pass")
	passNames := fs.String("passes", "", "comma-separated pass list to run in checked mode")
	discipline := fs.Bool("discipline", false, "lint the §2.2 naming discipline (expression vs. variable names); meaningful after normalize/gvn")
	strictSSA := fs.Bool("strict-ssa", false, "require single definitions per register (true SSA form)")
	noValidate := fs.Bool("no-validate", false, "skip translation validation in checked mode")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "epre: lint: need exactly one input file")
		return 2
	}
	prog, err := loadIR(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "epre:", err)
		return 1
	}
	if err := ir.VerifyProgram(prog); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}

	var diags []check.Diagnostic
	opt := check.Options{StrictSSA: *strictSSA, Discipline: *discipline}
	if *level != "" || *passNames != "" {
		var names []string
		if *passNames != "" {
			names = strings.Split(*passNames, ",")
		} else {
			lv, err := core.ParseLevel(*level)
			if err != nil {
				fmt.Fprintln(stderr, "epre:", err)
				return 2
			}
			names = core.PassNames(lv)
		}
		passes, err := core.Passes(names...)
		if err != nil {
			fmt.Fprintln(stderr, "epre:", err)
			return 2
		}
		out, ds, err := core.CheckedRun(prog, passes, core.OptimizeOptions{}, core.CheckConfig{Validate: !*noValidate})
		if err != nil {
			fmt.Fprintln(stderr, "epre:", err)
			return 1
		}
		diags = ds
		diags = append(diags, check.Program(out, opt)...)
	} else {
		diags = check.Program(prog, opt)
	}

	check.Report(stdout, diags)
	errs := len(check.Errors(diags))
	if n := len(diags); n > 0 {
		fmt.Fprintf(stdout, "epre lint: %d error(s), %d warning(s)\n", errs, n-errs)
	}
	if errs > 0 {
		return 1
	}
	return 0
}

func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	level := fs.String("level", "none", "optimization level before running")
	fn := fs.String("fn", "driver", "function to call")
	argSpec := fs.String("args", "", "comma-separated arguments (42 int, 4.2 float)")
	regs := fs.Int("regs", 0, "allocate to this many physical registers first (0 = keep virtual registers)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one input file")
	}
	p, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	lv, err := epre.ParseLevel(*level)
	if err != nil {
		return err
	}
	if lv != epre.LevelNone {
		if p, err = p.Optimize(lv); err != nil {
			return err
		}
	}
	spilled := -1
	if *regs > 0 {
		if spilled, err = p.AllocateRegisters(*regs); err != nil {
			return err
		}
	}
	var vals []epre.Value
	if *argSpec != "" {
		for _, tok := range strings.Split(*argSpec, ",") {
			tok = strings.TrimSpace(tok)
			if strings.ContainsAny(tok, ".eE") {
				f, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return fmt.Errorf("bad argument %q", tok)
				}
				vals = append(vals, epre.Float(f))
			} else {
				i, err := strconv.ParseInt(tok, 10, 64)
				if err != nil {
					return fmt.Errorf("bad argument %q", tok)
				}
				vals = append(vals, epre.Int(i))
			}
		}
	}
	res, err := p.Run(*fn, vals...)
	if err != nil {
		return err
	}
	for _, v := range res.Output {
		fmt.Fprintln(stdout, v)
	}
	fmt.Fprintf(stdout, "result      = %s\n", res.Value)
	fmt.Fprintf(stdout, "dynamic ops = %d\n", res.DynamicOps)
	fmt.Fprintf(stdout, "static ops  = %d\n", p.StaticOps())
	if spilled >= 0 {
		fmt.Fprintf(stdout, "spills      = %d (K=%d)\n", spilled, *regs)
	}
	return nil
}

func cmdTable1(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	parallel := fs.Int("parallel", 1, "measure up to N routines concurrently (output is byte-identical to the serial run)")
	passStats := fs.Bool("passstats", false, "append a per-pass table: applications, applications that moved a mutation generation, time, analysis cache misses")
	gvnName := fs.String("gvn", "", "global value numbering backend (awz|precise; default awz)")
	preName := fs.String("pre", "", "redundancy elimination backend (drechsler|lcm|lospre; default drechsler)")
	prof := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	var opts core.OptimizeOptions
	if opts.GVN, err = core.ParseGVNBackend(*gvnName); err != nil {
		return err
	}
	if opts.PRE, err = core.ParsePREBackend(*preName); err != nil {
		return err
	}
	var collector *core.PassStatsCollector
	if *passStats {
		collector = core.NewPassStatsCollector()
		opts.OnPass = collector.Observe
	}
	rows, err := suite.Table1Opts(context.Background(), *parallel, opts)
	if err != nil {
		return err
	}
	suite.WriteTable1(stdout, rows)
	if collector != nil {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "per-pass statistics (analysis columns count cache misses, not queries):")
		collector.Write(stdout)
	}
	return nil
}

func cmdGVNCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gvncompare", flag.ExitOnError)
	parallel := fs.Int("parallel", 1, "measure up to N routines concurrently (output is byte-identical to the serial run)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("gvncompare: unexpected argument %q", fs.Arg(0))
	}
	rows, err := suite.GVNCompare(context.Background(), *parallel)
	if err != nil {
		return err
	}
	suite.WriteGVNCompare(stdout, rows)
	return nil
}

func cmdPreCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("precompare", flag.ExitOnError)
	parallel := fs.Int("parallel", 1, "measure up to N routines concurrently (output is byte-identical to the serial run)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("precompare: unexpected argument %q", fs.Arg(0))
	}
	rows, err := suite.PreCompare(context.Background(), *parallel)
	if err != nil {
		return err
	}
	suite.WritePreCompare(stdout, rows)
	return nil
}

func cmdTable2(stdout io.Writer) error {
	rows, err := suite.Table2()
	if err != nil {
		return err
	}
	suite.WriteTable2(stdout, rows)
	return nil
}

func cmdLevels(stdout io.Writer) {
	fmt.Fprintln(stdout, "optimization levels (Table 1 columns):")
	for _, l := range epre.Levels {
		fmt.Fprintf(stdout, "  %-14s passes: %s\n", l, strings.Join(core.PassNames(l), " → "))
	}
	// The pass inventory prints in explicitly sorted order — canonical
	// output regardless of how the pass table is arranged internally.
	names := make([]string, 0, len(core.AllPasses()))
	for _, p := range core.AllPasses() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout, "\nindividual passes (for -passes and ilocfilter):")
	for _, name := range names {
		fmt.Fprintf(stdout, "  %s\n", name)
	}
	fmt.Fprintln(stdout, "\nselectable backends (swap a level's slot without renaming the stage):")
	gvnNames := make([]string, len(core.GVNBackends))
	for i, b := range core.GVNBackends {
		gvnNames[i] = fmt.Sprintf("%s (pass %s)", b, b.PassName())
	}
	fmt.Fprintf(stdout, "  %-5s %s\n", "gvn:", strings.Join(gvnNames, ", "))
	preNames := make([]string, len(core.PREBackends))
	for i, b := range core.PREBackends {
		preNames[i] = fmt.Sprintf("%s (pass %s)", b, b.PassName())
	}
	fmt.Fprintf(stdout, "  %-5s %s\n", "pre:", strings.Join(preNames, ", "))
}

// cmdExample prints the paper's running example at each stage: the
// Figure 2 source, its naive translation (Figure 3), and the code
// after each pass of the distribution-level pipeline, ending with the
// Figure 10 shape.
func cmdExample(stdout io.Writer) error {
	const src = `
func foo(y: int, z: int): int {
    var s: int = 0
    var x: int = y + z
    for i = x to 100 {
        s = 1 + s + x
    }
    return s
}
`
	fmt.Fprintln(stdout, "=== Figure 2: source ===")
	fmt.Fprint(stdout, src)
	p, err := epre.Compile(src)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n=== Figure 3: naive ILOC translation ===")
	fmt.Fprint(stdout, p.ILOC())
	stages := []struct {
		title  string
		passes []string
	}{
		{"Figures 4-7: after global reassociation (SSA, ranks, forward propagation, sorting)", []string{"reassoc"}},
		{"Figure 8: after global value numbering (renaming only)", []string{"gvn"}},
		{"Figure 9: after PRE (invariants hoisted, redundancies removed)", []string{"normalize", "pre"}},
		{"Figure 10: after coalescing and cleanup", []string{"sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}},
	}
	cur := p
	for _, st := range stages {
		cur, err = cur.OptimizePasses(st.passes...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n=== %s ===\n", st.title)
		fmt.Fprint(stdout, cur.ILOC())
	}
	for _, level := range epre.Levels {
		opt, err := p.Optimize(level)
		if err != nil {
			return err
		}
		res, err := opt.Run("foo", epre.Int(1), epre.Int(2))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-14s foo(1,2) = %-6s dynamic ops = %d\n", level, res.Value, res.DynamicOps)
	}
	return nil
}
