// Command perfbench is the repository benchmark. One run executes one
// workload for a fixed wall-clock budget, checks every output, prints the
// run's attribution and each metric with its unit and sample count, and
// ends with one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics. README.md explains the
// workloads and how each layer metric relates to the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"
	"time"
)

// heldOutSeed is reserved for confirming a performance claim: tune on
// other seeds, then report the claim on this one too.
const heldOutSeed = 20111

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the trial seeds derive from it")
	secs := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, workloadNames())
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	nproc := goruntime.NumCPU()
	goruntime.GOMAXPROCS(nproc)
	c := config{
		w: w, seed: *seed, traced: *trace == 1, shards: nproc,
		budget: time.Duration(*secs * float64(time.Second)),
	}
	attr, err := json.Marshal(attribute(c))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "attribution %s\n", attr)

	o := c.run()
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	res, err := report(stdout, o, defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
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

// jsonMetric and result are the final output line's schema.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints one line per metric of defs and builds the result. Every
// value the run set must be one of defs; a metric the workload's layers
// do not exercise reads 0.
func report(w io.Writer, o outcome, defs []metricDef) (result, error) {
	res := result{
		Correct:   o.attempted > 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v := o.values[d.name]
		res.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-24s %14.6g %-6s samples=%d\n", d.name, v.v, d.unit, v.samples)
	}
	for name := range o.values {
		if !known[name] {
			return res, fmt.Errorf("metric %q is not in this run's metric list", name)
		}
	}
	fmt.Fprintf(w, "metric %-24s %14.6g %-6s samples=%d\n", "fail_ratio", o.failRatio, "ratio", o.attempted)
	return res, nil
}
