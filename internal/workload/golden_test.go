package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden from the current generator")

const goldenPath = "testdata/digests.golden"

// goldenDigests lists one line per pinned slice: every TinySpec suite
// slice, and every family (CBP included) at two seeds × two budgets.
func goldenDigests() []string {
	var lines []string
	for _, sl := range Suite(TinySpec) {
		lines = append(lines, fmt.Sprintf("tiny %s %016x", sl.Name, sl.Digest()))
	}
	for _, fam := range allFamilies() {
		for i, seed := range []uint64{0xE59, 0x5EED} {
			for _, budget := range []int{6_000, 40_000} {
				sl := fam.Gen(5*i, budget, budget/5, seed)
				lines = append(lines, fmt.Sprintf("%s seed=%#x budget=%d %016x", sl.Name, seed, budget, sl.Digest()))
			}
		}
	}
	return lines
}

// TestGoldenDigests pins the generated traces themselves, not just
// their agreement across execution paths: any change to a generator's
// RNG draw order, layout or emission shows up here. Run with -update
// only for an intended change to the synthetic population.
func TestGoldenDigests(t *testing.T) {
	got := strings.Join(goldenDigests(), "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("got %d lines, want %d", len(g), len(w))
	}
}

var benchSink int

func BenchmarkSuiteTiny(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += len(Suite(TinySpec))
	}
}

// BenchmarkFamilyGen builds one TinySpec-sized slice per iteration
// (budget and warmup as Suite derives them), cycling the slice index so
// every iteration builds a different program.
func BenchmarkFamilyGen(b *testing.B) {
	warm := int(float64(TinySpec.InstsPerSlice) * TinySpec.WarmupFrac)
	budget := TinySpec.InstsPerSlice + warm
	for _, fam := range allFamilies() {
		b.Run(fam.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += fam.Gen(i%4, budget, warm, TinySpec.Seed).Len()
			}
		})
	}
}
