package core

import (
	"reflect"
	"testing"

	"exysim/internal/branch"
	"exysim/internal/workload"
)

// TestWarmImageIndependentOfPoolHistory pins that a warm image depends
// only on the slice that warmed it, not on what the simulator ran
// before its last Reset: an image captured after a slice's warmup on a
// fresh simulator must equal one captured after the same warmup on a
// pooled simulator that first ran a longer, different slice. Reset
// truncates the block-allocated tables' row slabs, leaving stale rows
// past their length; those rows must never reach an image.
func TestWarmImageIndependentOfPoolHistory(t *testing.T) {
	sl := workload.Suite(workload.TinySpec)[0]
	other, err := workload.ByName("web/0", workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 120_000, WarmupFrac: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m6 := mustGen(t, "M6")
	gens := append(Generations(), Hypothetical(m6, "M7", branch.PredictorSpec{Kind: branch.KindTAGESCL}))
	pd := sl.PreDecode()
	for _, g := range gens {
		t.Run(g.Name, func(t *testing.T) {
			fresh := NewSimulator(g)
			fresh.Replay(pd, 0, sl.Warmup)
			want, err := fresh.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			pooled := NewSimulator(g)
			pooled.Run(other)
			pooled.Reset()
			pooled.Replay(pd, 0, sl.Warmup)
			got, err := pooled.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("warm image after Reset differs from a fresh simulator's (%d vs %d bytes)", got.Bytes(), want.Bytes())
			}
		})
	}
}
