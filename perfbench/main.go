// Command perfbench is the repository's benchmark.  It runs one
// workload against the optimizer and the optimization service, checks
// every output, and prints the workload's metrics as the last line of
// standard output:
//
//	perfbench --workload suite-opt --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// no instrumentation.  With --trace 1 it carries the per-layer metrics:
// the same untraced measurement runs first, then a traced replay times
// each layer's public functions from this package's own code.  The
// metric names, units and the end-to-end metric each layer metric
// should move are listed in metrics.go.
//
// run.sh in this directory builds the command from the checkout's
// sources and runs it with all build state kept under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"repro/internal/core"
)

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// options are the settings shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch space for cache directories
	setups  int    // how many times setup runs; setup_s is their median
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"suite-opt":    runSuiteOpt,
	"serve-miss":   runServeMiss,
	"serve-cached": runServeCached,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: suite-opt, serve-miss or serve-cached")
		seed    = flag.Uint64("seed", 1, "seed of the workload's inputs and schedule")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		workdir = flag.String("workdir", os.TempDir(), "directory for the service's disk caches")
	)
	flag.Parse()
	if core.CheckEnabled() {
		// Checked mode validates every pass application and would make
		// the optimizer under test a different, much slower program.
		return fmt.Errorf("refusing to run with %s set", core.CheckEnv)
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, setups: setups}
	rep, err := runner(opts)
	if err != nil {
		return err
	}
	stamp, err := json.Marshal(rep.stamp(*name, opts))
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	line, err := json.Marshal(rep.result(opts.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report is what a workload hands back: raw samples and counts, turned
// into metrics by result.
type report struct {
	setups                   []float64 // seconds per setup repetition
	latencies                []float64 // ms per item (suite-opt) or per HTTP request (serve)
	items                    int       // items completed in the measured window
	wall                     float64   // seconds the measured window lasted
	attempted                int
	failed                   int
	quality                  quality
	corpusSeed, scheduleSeed uint64

	// Traced run only.
	layers      map[string]float64
	tracedItems int
	tracedWall  float64
}

func (r *report) itemsPerSecond() float64 { return float64(r.items) / r.wall }

// result renders the end-to-end metrics, or with trace the per-layer
// metrics, as the final output line.
func (r *report) result(trace bool) result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		r.layers["trace.overhead_frac"] = (float64(r.tracedItems)/r.tracedWall - r.itemsPerSecond()) / r.itemsPerSecond()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layers[m.name], Unit: m.unit}
		}
		return res
	}
	values := map[string]float64{
		"items_per_s":    r.itemsPerSecond(),
		"p50_ms":         percentile(r.latencies, 50),
		"p99_ms":         percentile(r.latencies, 99),
		"ok_frac":        1 - float64(r.failed)/float64(r.attempted),
		"setup_s":        median(r.setups),
		"dynops_dist":    float64(r.quality.dynopsDist),
		"dynops_all":     float64(r.quality.dynopsAll),
		"static_ops_all": float64(r.quality.staticOpsAll),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return res
}

// stamp is the line printed before the result: the environment and
// seeds the numbers depend on, and the sample count behind each
// percentile.
func (r *report) stamp(name string, opts options) map[string]any {
	return map[string]any{
		"workload":         name,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"go":               runtime.Version(),
		"pipeline_version": core.PipelineVersion(),
		"seed":             opts.seed,
		"corpus_seed":      r.corpusSeed,
		"schedule_seed":    r.scheduleSeed,
		"seconds":          opts.seconds,
		"latency_samples":  len(r.latencies),
		"setup_samples":    len(r.setups),
		"items":            r.items,
		"traced_items":     r.tracedItems,
	}
}

// percentile is the nearest-rank p-th percentile of xs; xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
