package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exysim/internal/obs"
)

// The program must report exactly the metrics BENCHMARK.json declares,
// with the same units, and every workload it declares must exist.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
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
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		program  map[string]string
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.declared) != len(set.program) {
			t.Errorf("%d metrics declared, program reports %d", len(set.declared), len(set.program))
		}
		for _, m := range set.declared {
			if u, ok := set.program[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s (%s): program reports unit %q", m.Name, m.Unit, u)
			}
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"exysim/internal/branch.(*TAGESCL).Predict":      "branch",
		"exysim/internal/cache.(*Cache).find":            "cache",
		"exysim/internal/experiments.Run.func1":          "",
		"encoding/json.(*decodeState).object":            "encoding_json",
		"net/http.(*conn).serve":                         "net_http",
		"net/http/internal.(*chunkedReader).Read":        "net_http",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "runtime",
		"syscall.Syscall":                                "",
		"exysim/internal/serve.(*Server).runJob.func1.1": "serve",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Self time is a span's duration minus its direct children's, per lane.
func TestSelfTimes(t *testing.T) {
	st := obs.NewSpanTracer(16)
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	a, b := st.Lane("a"), st.Lane("b")
	st.Record("client", "request", at(0), at(10), a, 1)
	st.Record("serve", "submit", at(0), at(2), a, 1)
	st.Record("serve", "wait", at(2), at(9), a, 1)
	st.Record("client", "request", at(0), at(4), b, 2) // other lane: no children
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := st.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	self, err := selfTimes(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"client.request": 1 + 4, "serve.submit": 2, "serve.wait": 7}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v ms, want %v", k, self[k], v)
		}
	}
}
