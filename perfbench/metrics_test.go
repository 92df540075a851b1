package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !namePattern.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, namePattern)
			}
			if !unitPattern.MatchString(d.unit) {
				t.Errorf("metric %q unit %q does not match %s", d.name, d.unit, unitPattern)
			}
			if seen[d.name] {
				t.Errorf("metric %q defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !namePattern.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, program reports %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestReportLine checks the final line's schema: exactly the four keys,
// every listed metric present with its unit, unknown metrics refused.
func TestReportLine(t *testing.T) {
	o := outcome{attempted: 3, values: map[string]value{"setup_s": {0.5, 3}}}
	var buf bytes.Buffer
	res, err := report(&buf, o, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := top[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(top) != 4 || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("unexpected result line %s", line)
	}
	if m := res.Metrics["setup_s"]; m.Value != 0.5 || m.Unit != "s" {
		t.Errorf("setup_s = %+v", m)
	}
	if !strings.Contains(buf.String(), "samples=3") {
		t.Errorf("printed metrics lack sample counts:\n%s", buf.String())
	}
	o.values["bogus"] = value{1, 1}
	if _, err := report(&buf, o, endToEnd); err == nil {
		t.Error("report accepted a metric outside its list")
	}
	o.failed = 1
	delete(o.values, "bogus")
	if res, _ := report(&buf, o, endToEnd); res.Correct {
		t.Error("a run with a failed trial reported correct")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", workloads[0].name, "--trace", "2"},
		{"--workload", workloads[0].name, "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q; want a non-zero exit and no output", args, code, out.String())
		}
	}
}
