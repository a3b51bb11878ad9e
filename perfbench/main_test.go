package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallRun runs a workload at its smallest size.
func smallRun(t *testing.T, name string, seed int64, trace, corrupt bool) (result, *report) {
	t.Helper()
	res, r, err := run(context.Background(), name, options{
		seed:     seed,
		duration: time.Second,
		trace:    trace,
		scratch:  t.TempDir(),
		small:    true,
		corrupt:  corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, r
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchSpec runs every workload of BENCHMARK.json untraced and
// traced, and checks that each prints exactly the named metrics, each
// with its unit, and passes its output checks.
func TestMetricsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, r := smallRun(t, w.Name, 1, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestWrongOracleFails checks that every workload's output check fails
// when its oracle expects a wrong value.
func TestWrongOracleFails(t *testing.T) {
	for name := range workloads {
		res, r := smallRun(t, name, 1, false, true)
		if res.Correct || len(r.problems) == 0 {
			t.Errorf("%s: a wrong oracle value passed the output checks", name)
		}
	}
}

// TestSeedChangesInputs checks that another seed gives other inputs but
// the same metric names.
func TestSeedChangesInputs(t *testing.T) {
	for name := range workloads {
		a, ra := smallRun(t, name, 1, false, false)
		b, rb := smallRun(t, name, 2, false, false)
		if ra.inputs == "" || ra.inputs == rb.inputs {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs %q", name, ra.inputs)
		}
		if ra.digest != "" && ra.digest == rb.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same dataset %s", name, ra.digest)
		}
		if !reflect.DeepEqual(names(a.Metrics), names(b.Metrics)) {
			t.Errorf("%s: seeds 1 and 2 printed different metrics: %v and %v", name, names(a.Metrics), names(b.Metrics))
		}
	}
}
