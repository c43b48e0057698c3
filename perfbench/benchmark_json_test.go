package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the metrics this program prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		printed  []metricDecl
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", c.what, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]", c.what, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
