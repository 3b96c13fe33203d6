// Guard tests for the hot-path performance properties: the steady-state
// step loop must not allocate, and population runs must be bit-identical
// regardless of worker scheduling.
package exysim

import (
	"reflect"
	"testing"

	"exysim/internal/core"
	"exysim/internal/workload"
)

// TestDecodedStepLoopDoesNotAllocate pins the zero-allocation property
// of the measured region: after warmup, replaying pre-decoded
// instructions through the heaviest configuration (M6) performs no heap
// allocations. Every microarchitectural table is preallocated at
// construction, every prefetch engine returns requests through a reused
// buffer, and Replay indexes the slice's shared stream in place, so a
// regression here means a new allocation crept into the per-instruction
// path.
func TestDecodedStepLoopDoesNotAllocate(t *testing.T) {
	g, ok := core.GenByName("M6")
	if !ok {
		t.Fatal("M6 missing")
	}
	sl, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	pd := sl.PreDecode()
	sim := core.NewSimulator(g)
	// Warm every table, ring and reused buffer with the first half of
	// the slice.
	half := len(sl.Insts) / 2
	sim.Replay(pd, 0, half)
	const window = 512
	pos := half
	avg := testing.AllocsPerRun(20, func() {
		// Replay a window of instructions per run so the measurement
		// covers branches, loads, stores and prefetch trains.
		if pos+window > len(sl.Insts) {
			pos = half
		}
		sim.Replay(pd, pos, pos+window)
		pos += window
	})
	if avg != 0 {
		t.Fatalf("steady-state step loop allocates: %.1f allocs per %d-inst window, want 0", avg, window)
	}
}

// TestStepLoopDoesNotAllocate pins the same property at the finest
// stepping granularity: one Replay call per instruction, the way
// cluster.Run interleaves its lanes. Per-call overhead in Replay (the
// warmup check, slicing the shared stream) must not allocate either.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	g, ok := core.GenByName("M6")
	if !ok {
		t.Fatal("M6 missing")
	}
	sl, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	pd := sl.PreDecode()
	sim := core.NewSimulator(g)
	half := len(sl.Insts) / 2
	for i := 0; i < half; i++ {
		sim.Replay(pd, i, i+1)
	}
	pos := half
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 512; i++ {
			sim.Replay(pd, pos, pos+1)
			pos++
			if pos == len(sl.Insts) {
				pos = half
			}
		}
	})
	if avg != 0 {
		t.Fatalf("one-instruction Replay loop allocates: %.1f allocs per 512-inst window, want 0", avg)
	}
}

// TestResetAndRerunDoesNotAllocate pins the reuse protocol's performance
// property: once a pooled simulator has run its first slice, recycling it
// with Reset() and replaying a whole slice performs no heap allocations.
// Reset must therefore clear every table, ring and reused buffer in
// place — a regression here means some subsystem reallocates its backing
// storage (or the co-runner RNG re-seed escapes to the heap). The M6
// specint slice evicts no mBTB line, so the M1 web slice covers the
// eviction path (the shortest web/0 at this spec that evicts one).
func TestResetAndRerunDoesNotAllocate(t *testing.T) {
	cases := []struct {
		gen, slice string
		spec       workload.SuiteSpec
	}{
		{"M6", "specint/0", benchSpec},
		{"M1", "web/0", workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 89_000, WarmupFrac: 0.25, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.gen+"/"+tc.slice, func(t *testing.T) {
			g, ok := core.GenByName(tc.gen)
			if !ok {
				t.Fatalf("%s missing", tc.gen)
			}
			sl, err := workload.ByName(tc.slice, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sim := core.NewSimulator(g)
			// First slice on the fresh simulator: grows append-managed
			// buffers (MAB list, prefetch request buffers) to their
			// steady capacity.
			sim.Run(sl)
			pd := sl.PreDecode()
			avg := testing.AllocsPerRun(5, func() {
				sim.Reset()
				sim.Replay(pd, 0, len(sl.Insts))
			})
			if avg != 0 {
				t.Fatalf("Reset+rerun allocates: %.1f allocs per slice, want 0", avg)
			}
		})
	}
}

// TestPopulationRunsDeterministic checks that two full population runs
// with the same spec produce bit-identical results even though slices
// fan out across worker goroutines in nondeterministic order. Under
// `go test -race` this also proves the workers share no mutable state.
func TestPopulationRunsDeterministic(t *testing.T) {
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 12_000, WarmupFrac: 0.25, Seed: 0xE59}
	a := popRun(t, spec)
	b := popRun(t, spec)
	if len(a.Results) != len(b.Results) {
		t.Fatalf("generation counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for g := range a.Results {
		for s := range a.Results[g] {
			ra, rb := a.Results[g][s], b.Results[g][s]
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("gen %s slice %s: results differ between identical runs:\n  first:  %+v\n  second: %+v",
					a.Gens[g].Name, a.Slices[s].Name, ra, rb)
			}
		}
	}
}
