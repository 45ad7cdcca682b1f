package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"strconv"
	"testing"
)

func mustExpected(t *testing.T) *expected {
	t.Helper()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// TestRecordedOutputsPass runs one chunk of each workload against the
// recorded outputs: every op must pass.
func TestRecordedOutputsPass(t *testing.T) {
	exp := mustExpected(t)
	for _, w := range workloads {
		res, err := run(io.Discard, w, exp, 1, 0.001, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d ops failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestPerturbedOutputFails shows that an expected output that differs from
// the program's makes the run's error rate non-zero.
func TestPerturbedOutputFails(t *testing.T) {
	perturb := map[string]func(*expected){
		"tables-small": func(e *expected) { e.Tables["table2"] += " " },
		"traffic-mpmc": func(e *expected) { e.Traffic["1"] = "0" + e.Traffic["1"][1:] },
		"scale-1024":   func(e *expected) { e.Scale = "0" + e.Scale[1:] },
	}
	for _, w := range workloads {
		exp := mustExpected(t)
		perturb[w.name](exp)
		res, err := run(io.Discard, w, exp, 1, 0.001, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed output gave correct %v, %d of %d ops failed; want failures", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestReferenceShapes reproduces the deterministic fields of the hot-path
// and parallel-kernel reference shapes, and fails a drifted one.
func TestReferenceShapes(t *testing.T) {
	exp := mustExpected(t)
	if err := checkReferences(exp); err != nil {
		t.Fatal(err)
	}
	exp.References[0].EventsPerRun++
	if err := checkReferences(exp); err == nil {
		t.Error("a drifted reference passed")
	}
}

// TestSeedReachesProgram runs traffic-mpmc on two seeds: both pass every
// oracle and match their recorded digests, and the digests differ.
func TestSeedReachesProgram(t *testing.T) {
	exp := mustExpected(t)
	digests := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		_, d, err := runTraffic(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := exp.Traffic[strconv.FormatUint(seed, 10)]; d != want {
			t.Errorf("seed %d: digest %s, want %s", seed, d, want)
		}
		digests[seed] = d
	}
	if digests[1] == digests[2] {
		t.Errorf("seeds 1 and 2 gave the same schedule digest %s", digests[1])
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names the workloads and metrics
// the program has, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("BENCHMARK.json has %d %s metrics, program has %d", len(got), kind, len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), program has %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}
