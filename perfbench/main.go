// Command perfbench is the repository's benchmark. It runs one named
// workload against the campaign or the serving pipeline, checks that the
// outputs are correct, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"qps":{"value":6512.3,"unit":"req/s"},...}}
//
// Run it through run.sh from the repository root, which builds it first.
// README.md in this directory describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// e2eUnits names every end-to-end metric with its unit. Every workload
// prints all of them on an untraced run.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"epochs_per_s":     "1/s",
	"allocs_per_epoch": "count",
	"qps":              "req/s",
	"p50_us":           "us",
	"scrape_ms":        "ms",
	"heap_mib":         "MiB",
}

// layerUnits names every per-layer metric with its unit. Every workload
// prints all of them on a traced run.
var layerUnits = map[string]string{
	"campaign.busy_ratio":              "ratio",
	"testbed.trace_ms.p50":             "ms",
	"testbed.trace_ms.max":             "ms",
	"sim.events_per_epoch":             "count",
	"sim.ns_per_event":                 "ns",
	"netem.allocs_per_packet_hop":      "count",
	"tcpsim.transfer_ms.reno":          "ms",
	"tcpsim.transfer_ms.cubic":         "ms",
	"tcpsim.transfer_ms.bbr":           "ms",
	"tcpsim.ns_per_event.reno":         "ns",
	"tcpsim.ns_per_event.cubic":        "ns",
	"tcpsim.ns_per_event.bbr":          "ns",
	"availbw.estimate_ms":              "ms",
	"availbw.allocs":                   "count",
	"probe.measure_ms":                 "ms",
	"traceio.write_ms_per_trace":       "ms",
	"http.rtt_us.observe":              "us",
	"http.rtt_us.measure":              "us",
	"http.rtt_us.predict":              "us",
	"http.rtt_us.predict_batch":        "us",
	"http.open_p99_us":                 "us",
	"predsvc.handler_us.observe":       "us",
	"predsvc.handler_us.measure":       "us",
	"predsvc.handler_us.predict":       "us",
	"predsvc.handler_us.predict_batch": "us",
	"fastjson.self_us":                 "us",
	"store.lookup_us.hot":              "us",
	"store.lookup_us.cold":             "us",
	"store.fault_ratio":                "ratio",
	"store.spills":                     "count",
	"predict.observe_us":               "us",
	"predict.predict_us":               "us",
	"predict.measure_us":               "us",
	"snapshot.encode_ms":               "ms",
	"snapshot.decode_ms":               "ms",
	"snapshot.restore_ms":              "ms",
	"predsvc.heap_bytes_per_session":   "bytes",
	"gen.late_p99_us":                  "us",
	"trace.overhead_pct":               "%",
}

// options is one run's settings. The flags set the first four; the
// self-test sets the rest.
type options struct {
	seed     int64
	duration time.Duration
	trace    bool
	scratch  string // directory for the run's files; removed afterwards

	small bool // smallest inputs, for the self-test
	// corrupt makes the correctness oracle expect a wrong value, so the
	// self-test can show that the output checks catch a mismatch.
	corrupt bool
}

// report collects what a workload measured and checked.
type report struct {
	attempted, failed int64
	problems          []string // failed output checks
	e2e               map[string]float64
	layer             map[string]float64
	inputs            string // digest of the generated inputs

	digest string // campaign: dataset digest of the first round
	events uint64 // campaign: sim events of the first round
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, o options, r *report) error

var workloads = map[string]workloadFunc{
	"campaign":   runCampaign,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload in a private scratch directory and turns its
// report into the printed result.
func run(ctx context.Context, name string, o options) (result, *report, error) {
	fn, ok := workloads[name]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return result{}, nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	o.scratch = dir

	r := newReport()
	if err := fn(ctx, o, r); err != nil {
		return result{}, r, fmt.Errorf("%s: %w", name, err)
	}
	values, units := r.e2e, e2eUnits
	if o.trace {
		values, units = r.layer, layerUnits
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			return result{}, r, fmt.Errorf("%s: metric %s was not measured", name, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if res.Attempted < 1 {
		return result{}, r, fmt.Errorf("%s: no operation was attempted", name)
	}
	return res, r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: campaign, serve-hot or serve-cold")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the measured load runs")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		scratch = flag.String("scratch", ".bench_build", "directory for the run's files")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	abs, err := filepath.Abs(*scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		scratch:  abs,
	}
	res, r, err := run(context.Background(), *name, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
