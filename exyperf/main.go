// Command exyperf is the repository benchmark: closed-loop clients drive
// exyserve over loopback HTTP on one of three traffic mixes, check every
// result, and print end-to-end metrics (--trace 0) or per-layer metrics
// from a traced run (--trace 1). See README.md for the workloads and the
// metric table.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash exyperf/run.sh --workload serve_mixed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Lines before it carry the run's provenance and a readable report;
// the full report and, for traced runs, the span file are written under
// .bench_build/exyperf/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run writes, relative to the working
// directory (the repository root).
const outDir = ".bench_build/exyperf"

type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	clients  int // = nproc: closed-loop clients and simulation goroutines
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance describes the host a run measured.
type provenance struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exyperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "traffic mix: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "seed every request stream derives from")
	seconds := fs.Int("seconds", 30, "length of the measured window (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "exyperf: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	prov := collectProvenance()
	if prov.LoadAvg1 > float64(prov.NumCPU) {
		fmt.Fprintf(stderr, "exyperf: warning: load average %.2f exceeds nproc %d; figures will be noisy\n", prov.LoadAvg1, prov.NumCPU)
	}
	cfg := config{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		clients:  prov.NumCPU,
	}
	if cfg.clients > runtime.GOMAXPROCS(0) {
		cfg.clients = runtime.GOMAXPROCS(0)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "exyperf:", err)
		return 1
	}
	rep, err := execute(cfg, w)
	if err != nil {
		fmt.Fprintln(stderr, "exyperf:", err)
		return 1
	}
	rep.Provenance = prov

	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, *trace))
	if err := writeJSONFile(path, rep); err != nil {
		fmt.Fprintln(stderr, "exyperf:", err)
		return 1
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	printReport(stdout, rep)
	fmt.Fprintf(stdout, "report %s\n", path)
	if !rep.Result.Correct {
		fmt.Fprintln(stderr, "exyperf: output check FAILED:", strings.Join(rep.Problems, "; "))
	}
	out, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "exyperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// report is everything one run measured; Result is the contract line.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Clients    int                `json:"clients"`
	Provenance provenance         `json:"provenance"`
	Result     result             `json:"result"`
	Extra      map[string]metric  `json:"extra,omitempty"`
	Samples    map[string]int     `json:"samples"`
	SelfTimeMs map[string]float64 `json:"self_time_ms,omitempty"`
	SpanFile   string             `json:"span_file,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
}

func printReport(w io.Writer, rep *report) {
	list := func(kind string, m map[string]metric) {
		for _, n := range sortedKeys(m) {
			fmt.Fprintf(w, "%s %-40s %14.6g %s\n", kind, n, m[n].Value, m[n].Unit)
		}
	}
	list("metric", rep.Result.Metrics)
	list("extra ", rep.Extra)
	for _, k := range sortedKeys(rep.Samples) {
		fmt.Fprintf(w, "samples %s %d\n", k, rep.Samples[k])
	}
	if rep.SpanFile != "" {
		fmt.Fprintf(w, "spans %s\n", rep.SpanFile)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func collectProvenance() provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				p.CPU = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			p.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return p
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// elapsed is seconds since t, as a float.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
