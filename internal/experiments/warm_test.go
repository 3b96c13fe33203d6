package experiments

import (
	"context"
	"testing"

	"exysim/internal/core"
	"exysim/internal/workload"
)

// TestWarmCacheMemosFollowResidentSuites: fresh-seed sweeps past the
// suite bound must not leave the evicted suites' slices pinned by the
// digest memos or the decode streams, and eviction must keep the newest
// suites.
func TestWarmCacheMemosFollowResidentSuites(t *testing.T) {
	w := NewWarmCache()
	w.SetSnapshotBudget(0)
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 400, WarmupFrac: 0.25}
	perSuite := len(workload.Plan(spec))
	gens := core.Generations()[:1]
	sweeps := maxCachedSuites + 4
	for seed := 1; seed <= sweeps; seed++ {
		spec.Seed = uint64(seed)
		if _, err := Run(context.Background(), spec, WithWarmSnapshots(w), WithGenerations(gens), WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	suites, digests, decoded := len(w.suites), len(w.digests), len(w.decoded)
	w.mu.Unlock()
	if suites != maxCachedSuites {
		t.Fatalf("%d suites resident, want %d", suites, maxCachedSuites)
	}
	if limit := suites * perSuite; digests > limit || decoded > limit {
		t.Fatalf("after %d sweeps: %d digest memos and %d decode streams for %d resident suites of %d slices (limit %d)",
			sweeps, digests, decoded, suites, perSuite, limit)
	}

	// The newest suites stayed: re-requesting the last maxCachedSuites
	// seeds hits every time.
	before := w.Stats().SuiteMisses
	for seed := sweeps - maxCachedSuites + 1; seed <= sweeps; seed++ {
		spec.Seed = uint64(seed)
		w.Suite(spec)
	}
	if got := w.Stats().SuiteMisses; got != before {
		t.Fatalf("%d of the %d newest suites were evicted", got-before, maxCachedSuites)
	}
}
