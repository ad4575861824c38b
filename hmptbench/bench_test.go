package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// smallParams shrinks a run to a handful of ops per phase.
func smallParams(perturb bool) params {
	return params{segmentOps: 3, setupReps: 1, missKeys: 6, missChecks: 2, perturb: perturb}
}

// TestOracleCatchesPerturbedReference is the oracle's self-test: with
// every reference intact ok_frac is 1, and corrupting the reference each
// workload compares against drives it below 1.
func TestOracleCatchesPerturbedReference(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, perturb := range []bool{false, true} {
				res, _, err := bench(name, 7, false, t.TempDir(), t.TempDir(), smallParams(perturb))
				if err != nil {
					t.Fatal(err)
				}
				ok := res.Metrics["ok_frac"].Value
				switch {
				case !perturb && (ok != 1 || !res.Correct):
					t.Errorf("intact reference: ok_frac %v, correct %v", ok, res.Correct)
				case perturb && (ok >= 1 || res.Correct):
					t.Errorf("perturbed reference: ok_frac %v, correct %v; want below 1 and incorrect", ok, res.Correct)
				}
			}
		})
	}
}

type layerTable struct {
	Layers []struct {
		Metrics []string `json:"metrics"`
	} `json:"layers"`
	Counts map[string]map[string]float64 `json:"counts_at_commit"`
}

type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestTracedRunReportsEveryLayer runs each workload traced: its replays
// must match the engine byte for byte, it must report exactly the
// per-layer metrics of BENCHMARK.json, and its exact counts must equal
// the ones layers.json records.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	var spec benchSpec
	readJSON(t, "../BENCHMARK.json", &spec)
	var table layerTable
	readJSON(t, "layers.json", &table)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, detail, err := bench(name, 11, true, t.TempDir(), t.TempDir(), smallParams(false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run incorrect: %+v", res)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			for metric, want := range table.Counts[name] {
				if got := res.Metrics[metric].Value; got != want {
					t.Errorf("%s = %v per op, layers.json records %v", metric, got, want)
				}
			}
			if _, ok := detail["dropped"]; !ok {
				t.Error("detail record names no dropped metrics")
			}
		})
	}
}

// TestCatalogues keeps BENCHMARK.json, layers.json and the program's
// metric lists in step.
func TestCatalogues(t *testing.T) {
	var spec benchSpec
	readJSON(t, "../BENCHMARK.json", &spec)
	var table layerTable
	readJSON(t, "layers.json", &table)

	known := map[string]bool{}
	for _, name := range workloadNames {
		known[name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, the program runs %v", w.Name, workloadNames)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, spec.PerLayer[i], m)
		}
	}
	var inTable []string
	for _, l := range table.Layers {
		inTable = append(inTable, l.Metrics...)
	}
	var inSpec []string
	for _, m := range spec.PerLayer {
		inSpec = append(inSpec, m.Name)
	}
	sort.Strings(inTable)
	sort.Strings(inSpec)
	if len(inTable) != len(inSpec) {
		t.Fatalf("layers.json covers %d metrics, BENCHMARK.json lists %d", len(inTable), len(inSpec))
	}
	for i := range inSpec {
		if inTable[i] != inSpec[i] {
			t.Errorf("layers.json has %q where BENCHMARK.json has %q", inTable[i], inSpec[i])
		}
	}
	e2e := endToEnd(&phase{attempted: 1})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}
