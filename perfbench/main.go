// Command perfbench is the repository's benchmark: one program that builds
// the serving stack, the inference path and the replay simulator from
// source, drives one of three workloads for a fixed time, checks every
// answer it can against an oracle computed directly from the trained
// model, and prints each metric by name and unit. The last line of its
// standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// A timed run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) re-runs the same seed and stream with spans recorded around
// every call the benchmark makes into a layer and reports per-layer
// metrics. See README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload predict-miss --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"success_rate", "ratio"},
	{"prefetch_precision", "ratio"},
	{"prefetch_recall", "ratio"},
	{"replay_speedup", "x"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"serve.infer_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.feedback_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.inferences_per_request", "ratio"},
	{"serve.batched_ratio", "ratio"},
	{"serve.mean_batch_size", "count"},
	{"serve.replica_skew", "ratio"},
	{"serve.sheds", "count"},
	{"serve.failovers", "count"},
	{"spec.decode_us", "us"},
	{"plan.plan_us", "us"},
	{"predictor.encode_us", "us"},
	{"predictor.fingerprint_ns", "ns"},
	{"predictor.predict_ms", "ms"},
	{"predictor.models_per_plan", "count"},
	{"predictor.tokens_per_plan", "count"},
	{"model.forward_us", "us"},
	{"model.batch_row_us", "us"},
	{"nn.flops_per_plan", "flop"},
	{"nn.weight_bytes_per_plan", "bytes"},
	{"nn.gflops", "GFLOP/s"},
	{"quality.feedback_scored", "count"},
	{"quality.window_precision", "ratio"},
	{"quality.drift_level", "level"},
	{"workload.build_s", "s"},
	{"workload.distinct_ratio", "ratio"},
	{"pythia.train_s", "s"},
	{"pythia.prefetch_ms", "ms"},
	{"replay.default_pass_s", "s"},
	{"replay.pythia_pass_s", "s"},
	{"replay.requests_per_s", "1/s"},
	{"replay.allocs_per_query", "count"},
	{"replay.disk_reads_per_query", "count"},
	{"replay.window_stalls", "count"},
	{"replay.prefetch_wasted_ratio", "ratio"},
	{"replay.timed_inferences", "count"},
	{"buffer.hit_ratio", "ratio"},
	{"oscache.hit_ratio", "ratio"},
	{"runtime.allocs_per_request", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ms_p50", "ms"},
}

// params is what one run of a workload is given.
type params struct {
	seed    uint64
	measure time.Duration
	// tr is non-nil on a traced run.
	tr *tracer
}

func (p params) traced() bool { return p.tr != nil }

// outcome is what one run of a workload measured.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks beyond per-operation
	// failures (a count that must match, a run that must repeat).
	problems []string
	values   map[string]float64
	// notes carry the sample counts and percentiles behind values.
	notes map[string]string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]string{}}
}

func (o *outcome) set(name string, v float64, note string) {
	o.values[name] = v
	if note != "" {
		o.notes[name] = note
	}
}

// setQuantile records a percentile with its sample count and rank.
func (o *outcome) setQuantile(name string, q quantile) {
	note := fmt.Sprintf("p%g of %d samples, %d beyond", q.P*100, q.N, q.Beyond)
	if q.Chunks > 1 {
		note = fmt.Sprintf("median of the p%g of %d chunks of %d samples, %d beyond in each", q.P*100, q.Chunks, q.N/q.Chunks, q.Beyond)
	}
	o.set(name, q.Value, note)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// benchWorkload is one traffic mix the benchmark can run; BENCHMARK.json
// says why each was chosen.
type benchWorkload struct {
	name string
	run  func(params) (*outcome, error)
}

var workloads = []benchWorkload{
	{"predict-miss", func(p params) (*outcome, error) { return runPredict(missSpec, p) }},
	{"predict-hot-feedback", func(p params) (*outcome, error) { return runPredict(hotSpec, p) }},
	{"replay-concurrent", func(p params) (*outcome, error) { return runReplay(replaySpec, p) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: predict-miss, predict-hot-feedback or replay-concurrent")
	seed := fs.Uint64("seed", 1, "seed the run's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	spansPath := fs.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	p := params{seed: *seed, measure: time.Duration(*seconds) * time.Second}
	defs := endToEnd
	if *trace == 1 {
		p.tr = &tracer{}
		defs = perLayer
	}
	out, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if p.traced() {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
		if err := writeSpans(path, p.tr.snapshot()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	if err := report(stdout, w.name, p, *trace, defs, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints provenance, one line per metric, any failed checks, and
// the result object as the last line.
func report(w io.Writer, name string, p params, trace int, defs []metricDef, o *outcome) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", name, p.seed, p.measure.Seconds(), trace)
	fmt.Fprintf(w, "provenance: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s clients=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), clients)
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		line := fmt.Sprintf("metric %-30s %14.6g %s", d.name, v, d.unit)
		if n := o.notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, pr := range o.problems {
		fmt.Fprintf(w, "check failed: %s\n", pr)
	}
	res.Correct = o.failed == 0 && len(o.problems) == 0 && o.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

// cpuModel reads the CPU model name (best effort).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
