package core

import (
	"testing"

	"exysim/internal/branch"
	"exysim/internal/snapshot"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// benchStateGens are the generations the snapshot benchmarks cover: the
// smallest (M1) and largest (M6) shipped cores, and M6 with the default
// TAGE-SC-L predictor — the M7 column of a predictor-lab sweep.
func benchStateGens() []GenConfig {
	m1, _ := GenByName("M1")
	m6, _ := GenByName("M6")
	return []GenConfig{m1, m6, Hypothetical(m6, "M7", branch.PredictorSpec{Kind: branch.KindTAGESCL})}
}

// warmImage runs sl's warmup on a new simulator and captures it, the
// way a warm cache does at the warmup boundary.
func warmImage(b *testing.B, g GenConfig, sl *trace.Slice) (*Simulator, *snapshot.Image) {
	b.Helper()
	sim := NewSimulator(g)
	sim.Replay(sl.PreDecode(), 0, sl.Warmup)
	img, err := sim.CaptureState()
	if err != nil {
		b.Fatal(err)
	}
	return sim, img
}

// BenchmarkCaptureState times one warm-state capture of a tiny-spec
// slice right after its warmup.
func BenchmarkCaptureState(b *testing.B) {
	sl := workload.Suite(workload.TinySpec)[0]
	for _, g := range benchStateGens() {
		b.Run(g.Name, func(b *testing.B) {
			sim, img := warmImage(b, g, sl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.CaptureState(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(img.Bytes())/1024, "image-KiB")
		})
	}
}

// BenchmarkRestoreState times one warm-state restore into a pooled
// simulator that has already run another slice, as a sweep's fork does:
// the restores alternate between two slices' warm images, so each one
// overwrites the state the previous one left.
func BenchmarkRestoreState(b *testing.B) {
	suite := workload.Suite(workload.TinySpec)
	a, c, other := suite[0], suite[len(suite)/2], suite[len(suite)-1]
	for _, g := range benchStateGens() {
		b.Run(g.Name, func(b *testing.B) {
			_, imgA := warmImage(b, g, a)
			_, imgC := warmImage(b, g, c)
			sim := NewSimulator(g)
			sim.Run(other)
			imgs := [2]*snapshot.Image{imgA, imgC}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.RestoreState(imgs[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
