package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{20, 0.5, 10, true},  // rank 10, ten beyond
		{19, 0.5, 10, false}, // rank 10, nine beyond
		{100, 0.9, 90, true}, // rank 90, ten beyond
		{99, 0.9, 90, false}, // rank ceil(89.1)=90, nine beyond
		{1, 0.5, 1, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 3, 9, 12}, [3]float64{3, 7, 10}},
	} {
		got, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

// A window whose reference kernel ran at the nominal speed reads 1, and
// the kernel really runs: every chunk takes some thread CPU time.
func TestHostSpeed(t *testing.T) {
	if s := (refTally{ops: 3 * nominalRefMops * 1e6, cpu: 3}).speed(); math.Abs(s-1) > 1e-12 {
		t.Errorf("speed at nominal = %v, want 1", s)
	}
	if s := (refTally{ops: nominalRefMops * 1e6, cpu: 2}).speed(); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("speed at half nominal = %v, want 0.5", s)
	}
	h := newHostRef(1)
	var w window
	for i := 0; i < 3; i++ {
		cpu, wall := h.chunk()
		if cpu <= 0 || wall <= 0 {
			t.Fatalf("chunk took %v s CPU, %v s wall", cpu, wall)
		}
		w.ref.add(refTally{refOps, cpu})
	}
	if s := w.ref.speed(); s <= 0 || math.IsInf(s, 0) {
		t.Errorf("measured speed %v", s)
	}
}
