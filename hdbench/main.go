// Command hdbench is the repository's end-to-end benchmark. It drives both
// planes of the system from outside, through their public functions only,
// and prints every metric by name and unit followed by one JSON result line.
//
// Workloads:
//
//	device-corpus  every corpus app under an attached Hang Doctor (device plane)
//	fleet-ingest   closed-loop binary/JSON uploads into one durable aggregator
//	fleet-fresh    open-loop uploads into two durable nodes with a regional
//	               delta poller reading beside them
//
// Usage (from the repository root):
//
//	bash hdbench/run.sh --workload fleet-ingest --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same workload twice in one process, untraced and then traced, prints
// the per-layer self-time table and the tracing overhead, writes the spans as
// Chrome trace-event JSON under --out, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// result is what a workload hands back to main: the outcome of its output
// checks, the operation counts, and its metrics.
type result struct {
	attempted, failed int64
	// problems lists every failed output check; empty means correct.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// ratios are printed with their bases: name -> [numerator, denominator].
	ratios map[string][2]float64
	// notes are extra human-readable lines (tables, overhead summary).
	notes []string
}

func newResult() *result {
	return &result{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		ratios: map[string][2]float64{},
	}
}

func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ratio records a per-layer ratio and remembers its base for printing.
func (r *result) ratio(name string, num, den float64) {
	r.ratios[name] = [2]float64{num, den}
	r.layer[name] = safeDiv(num, den)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

var workloads = map[string]func(options) (*result, error){
	"device-corpus": runDeviceCorpus,
	"fleet-ingest":  runFleetIngest,
	"fleet-fresh":   runFleetFresh,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "device-corpus | fleet-ingest | fleet-fresh")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/traces", "directory for the Chrome trace-event span files")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "hdbench: bad arguments (workload %q, seconds %g, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if err := emit(o, res); err != nil {
		fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints the human-readable report and the final JSON line. A traced
// run reports exactly the per-layer metric set, an untraced one exactly the
// end-to-end set; a workload that does not exercise a layer reports 0 for it.
func emit(o options, r *result) error {
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	specs, vals := endToEnd, r.e2e
	if o.trace {
		specs, vals = perLayer, r.layer
	}
	known := map[string]bool{}
	metrics := map[string]map[string]any{}
	for _, s := range specs {
		known[s.name] = true
		v := vals[s.name]
		metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
		if base, ok := r.ratios[s.name]; ok {
			fmt.Printf("  %-34s %14.6g %-8s (%g / %g)\n", s.name, v, s.unit, base[0], base[1])
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", s.name, v, s.unit)
		}
	}
	var stray []string
	for name := range vals {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("metrics missing from the metric table: %s", strings.Join(stray, ", "))
	}
	fmt.Printf("  %-34s %14d\n  %-34s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// deadline is the end of a timed phase that starts now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
