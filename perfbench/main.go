// Command perfbench is the repository's end-to-end checking benchmark. It
// runs one seeded workload of fault-schedule histories through the checker's
// public entry points (scenario.Run, core.CheckRA, core.CheckRAExtend) as a
// closed loop — one client, one history or prefix at a time, one shared
// search.Session, sequential search — checks every verdict, and prints one
// JSON result line. With --trace 1 it instead re-drives each check layer by
// layer and reports per-layer metrics. See README.md for the metrics, the
// workloads and the layer predictions.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload refute --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// unit names each metric's unit, end-to-end and per-layer alike; it is the
// one list the output and the benchmark's tests check BENCHMARK.json against.
var unit = map[string]string{
	"setup_s":         "s",
	"histories_per_s": "1/s",
	"checks_per_s":    "1/s",
	"check_p50_us":    "us",
	"check_p99_us":    "us",
	"pass_ratio":      "ratio",
	"peak_rss_mb":     "MiB",

	"scenario.gen_us":     "us",
	"scenario.gen_allocs": "allocs",
	"scenario.ops":        "ops",

	"rewrite.us":              "us",
	"rewrite.allocs":          "allocs",
	"rewrite.cache_hit_ratio": "ratio",

	"strategy.us":        "us",
	"strategy.tries":     "count",
	"strategy.hit_ratio": "ratio",

	"search.us":                "us",
	"search.nodes":             "count",
	"search.pruned":            "count",
	"search.memo_hits":         "count",
	"search.memo_hit_ratio":    "ratio",
	"search.ns_per_node":       "ns",
	"search.allocs":            "allocs",
	"search.plan_reused_ratio": "ratio",

	"extend.replay_us":      "us",
	"extend.search_us":      "us",
	"extend.rebuild_us":     "us",
	"extend.replayed_ratio": "ratio",
	"extend.searched_ratio": "ratio",
	"extend.rebuilt_ratio":  "ratio",
	"extend.nodes":          "count",

	"session.interned_states": "count",
	"session.evictions":       "count",

	"trace.overhead_ratio": "ratio",
	"host.calib_us":        "us",
}

// report is one run's outcome.
type report struct {
	workload string
	seed     int64
	traced   bool
	tally    tally
	metrics  map[string]float64
	recs     []trialRec

	// raw holds the untraced time-based metrics before normalisation by
	// hostFactor (see host.go).
	raw        map[string]float64
	hostFactor float64

	timings   timings // untraced runs
	p99Beyond int

	checks         int // traced runs
	overhead       float64
	attributionBad bool
}

func (r *report) correct() bool { return r.tally.correct() && !r.attributionBad }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints a human-readable summary and then the JSON result line.
func (r *report) write(out io.Writer) error {
	t := &r.tally
	if r.traced {
		fmt.Fprintf(out, "perfbench %s seed %d traced: %d checks, trace overhead %+.3f\n",
			r.workload, r.seed, r.checks, r.overhead)
	} else {
		tm := &r.timings
		fmt.Fprintf(out, "perfbench %s seed %d: %d histories, %d checks in %.2f s\n",
			r.workload, r.seed, tm.histories, len(tm.checks), tm.wall.Seconds())
		fmt.Fprintf(out, "check latency over %d samples: p50 %.1f us, p99 %.1f us (%d samples beyond p99)\n",
			len(tm.checks), r.metrics["check_p50_us"], r.metrics["check_p99_us"], r.p99Beyond)
		fmt.Fprintf(out, "host factor %.4f; raw: set-up %.4f s, %.1f histories/s, %.1f checks/s, p50 %.1f us, p99 %.1f us\n",
			r.hostFactor, r.raw["setup_s"], r.raw["histories_per_s"], r.raw["checks_per_s"], r.raw["check_p50_us"], r.raw["check_p99_us"])
	}
	fmt.Fprintf(out, "oracle: %d checks, %d failed (%d unknown, %d wrong, %d audit, %d parity, %d inputs changed); %d histories against committed verdicts, %d from-scratch reference checks, %d canary mismatches\n",
		t.attempted, t.failed, t.unknown, t.wrong, t.auditBad, t.parityBad, t.inputChanged, t.committed, t.recomputed, t.canaryBad)
	if r.attributionBad {
		fmt.Fprintf(out, "attribution: layer times sum to %+.3f of the untraced check time, beyond ±%.2f\n", r.overhead, maxTraceOverhead)
	}
	for _, n := range t.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	res := resultOut{
		Correct:   r.correct(),
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricOut{},
	}
	for name, v := range r.metrics {
		res.Metrics[name] = metricOut{Value: v, Unit: unit[name]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	// The measuring goroutine stays on this thread, so that the thread's CPU
	// clock times its work (see cpuNow).
	runtime.LockOSThread()
	start := cpuNow()
	if err := run(os.Args[1:], os.Stdout, start); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, start time.Duration) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: designated, refute or monitor")
	seed := fs.Int64("seed", defaultSeed, "run seed; trial i runs its scenario with seed + i·7919")
	seconds := fs.Float64("seconds", 30, "minimum measured wall time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	rec := fs.Int("record", 0, "print the from-scratch verdicts of the first N trials in the expected/ format instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := newWorkload(*name)
	if err != nil {
		return err
	}
	if *rec > 0 {
		return record(w, *seed, *rec, out)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds*float64(time.Second)))
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, cfg)
	} else {
		rep, err = runUntraced(w, cfg, start)
	}
	if err != nil {
		return err
	}
	return rep.write(out)
}
