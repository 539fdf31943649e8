package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the root of the repository declares what this
// program prints; the two must not drift apart.
func TestManifestDeclaresWhatTheProgramPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(w.Name, 1, t.TempDir()); err != nil {
			t.Errorf("declared workload: %v", err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads declared %v, program has %v", names, workloadNames)
	}
	declared := func(ms []metric) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{name: m.Name, unit: m.Unit, higher: m.Better == "higher", bound: m.Bound})
		}
		return out
	}
	if got := declared(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end declared %+v, program has %+v", got, endToEnd)
	}
	if got := declared(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}
