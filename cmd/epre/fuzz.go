package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/ir"
)

// sabotageEnv, when set to a level name, wraps the pipeline with a
// deliberate miscompile (every integer add in main flipped to a
// subtract after optimizing at that level).  It exists so the CLI's
// failure path — nonzero exit, FAIL lines, artifact writing — can be
// exercised end to end in tests without shipping a broken pass.
const sabotageEnv = "EPRE_FUZZ_SABOTAGE"

func sabotagedOptimize(levelName string) (difftest.OptimizeFunc, error) {
	target, err := core.ParseLevel(levelName)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sabotageEnv, err)
	}
	return func(ctx context.Context, p *ir.Program, level core.Level) (*ir.Program, error) {
		out, err := core.OptimizeWith(p, level, core.OptimizeOptions{Ctx: ctx})
		if err != nil || level != target {
			return out, err
		}
		if f := out.Func("main"); f != nil {
			for _, b := range f.Blocks {
				for _, inID := range b.Instrs {
					in := b.Fn.Instr(inID)
					if in.Op == ir.OpAdd {
						in.Op = ir.OpSub
					}
				}
			}
		}
		return out, nil
	}, nil
}

// cmdFuzz runs the differential fuzzing harness: generate random ILOC
// programs, optimize at the requested levels, and compare observable
// behavior against the unoptimized reference interpretation.  The exit
// status is nonzero when any failure is found, so the command doubles
// as a CI gate (see make fuzz-smoke).
func cmdFuzz(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "base seed; program i uses seed+i")
	n := fs.Int("n", 100, "number of programs to generate and test")
	levelSpec := fs.String("level", "all", "level to test (baseline|partial|reassoc|dist|all)")
	workers := fs.Int("workers", 1, "test programs concurrently (report is identical for any worker count)")
	shrink := fs.Bool("shrink", true, "minimize failing programs by delta debugging")
	artifactDir := fs.String("artifact-dir", "", "write failing reproducers into this directory")
	perPass := fs.Bool("per-pass", false, "re-validate miscompiles pass by pass to name the guilty pass")
	gvnDiff := fs.Bool("gvn-diff", false, "cross-backend mode: test every GVN-carrying level with both the awz and precise backends")
	preDiff := fs.Bool("pre-diff", false, "cross-backend mode: test every PRE-carrying level with the drechsler, lcm and lospre backends")
	callHeavy := fs.Bool("call-heavy", false, "force the generator's call-heavy shape: dense call sites and depth-two call chains")
	timeout := fs.Duration("timeout", 0, "overall run deadline (0 = none)")
	stats := fs.Bool("stats", false, "print the run's metrics as one JSON object")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz: unexpected argument %q", fs.Arg(0))
	}

	var levels []core.Level
	if *levelSpec != "" && *levelSpec != "all" {
		for _, tok := range strings.Split(*levelSpec, ",") {
			lv, err := core.ParseLevel(strings.TrimSpace(tok))
			if err != nil {
				return err
			}
			levels = append(levels, lv)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var optimize difftest.OptimizeFunc
	if lv := os.Getenv(sabotageEnv); lv != "" {
		if *gvnDiff || *preDiff {
			return fmt.Errorf("fuzz: -gvn-diff/-pre-diff cannot be combined with %s", sabotageEnv)
		}
		var err error
		if optimize, err = sabotagedOptimize(lv); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fuzz: %s=%s — pipeline deliberately broken for testing\n", sabotageEnv, lv)
	}

	rep, err := difftest.Run(difftest.Options{
		Optimize:    optimize,
		Ctx:         ctx,
		Seed:        *seed,
		N:           *n,
		Levels:      levels,
		Workers:     *workers,
		Shrink:      *shrink,
		ArtifactDir: *artifactDir,
		PerPass:     *perPass,
		GVNDiff:     *gvnDiff,
		PREDiff:     *preDiff,
		CallHeavy:   *callHeavy,
	})
	if err != nil {
		return err
	}

	for i := range rep.Failures {
		f := &rep.Failures[i]
		fmt.Fprintln(stdout, "FAIL:", f.String())
		if f.Artifact != "" {
			fmt.Fprintf(stdout, "      reproducer: %s\n", f.Artifact)
		}
	}
	rate := float64(rep.Programs) / maxSeconds(rep.Elapsed)
	fmt.Fprintf(stdout, "fuzz: %d programs, %d failures in %s (%.1f programs/sec)\n",
		rep.Programs, len(rep.Failures), rep.Elapsed.Round(time.Millisecond), rate)
	if len(rep.ByKind) > 0 {
		for _, kind := range []difftest.Kind{
			difftest.KindMiscompile, difftest.KindVerifierReject,
			difftest.KindPanic, difftest.KindTimeout,
		} {
			if c := rep.ByKind[kind]; c > 0 {
				fmt.Fprintf(stdout, "fuzz:   %-16s %d\n", kind, c)
			}
		}
	}
	if *stats {
		out, err := json.Marshal(map[string]any{
			"programs":            rep.Programs,
			"failures":            len(rep.Failures),
			"failures_by_kind":    rep.ByKind,
			"elapsed_seconds":     rep.Elapsed.Seconds(),
			"programs_per_second": rate,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("fuzz: %d failure(s)", len(rep.Failures))
	}
	return nil
}

func maxSeconds(d time.Duration) float64 {
	if s := d.Seconds(); s > 0 {
		return s
	}
	return 1e-9
}
