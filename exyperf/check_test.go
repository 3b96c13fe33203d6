package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// servedIn lays out the requests of three streams (population, slice,
// population) over quarters as a traced run concatenates them: untraced
// quarters 0 and 2, then traced quarters 1 and 3. cuts[i] holds stream
// i's quarter boundaries.
func servedIn(cuts [3][5]int) []sample {
	kinds := []string{kindPopulation, kindSlice, kindPopulation}
	quarter := func(q int) []sample {
		var out []sample
		for i, c := range cuts {
			for k := c[q]; k < c[q+1]; k++ {
				out = append(out, sample{kind: kinds[i], stream: i, index: k})
			}
		}
		return out
	}
	return slices.Concat(quarter(0), quarter(2), quarter(1), quarter(3))
}

func positions(ss []sample) string {
	out := ""
	for _, s := range ss {
		out += fmt.Sprintf("%d/%d ", s.stream, s.index)
	}
	return out
}

func TestRefSampleIgnoresWindowSplit(t *testing.T) {
	splits := [][3][5]int{
		{{0, 10, 10, 10, 10}, {0, 30, 30, 30, 30}, {0, 9, 9, 9, 9}}, // one untraced window
		{{0, 1, 3, 6, 10}, {0, 2, 9, 20, 30}, {0, 3, 4, 7, 9}},
		{{0, 4, 5, 9, 10}, {0, 8, 15, 22, 30}, {0, 1, 2, 5, 9}},
	}
	for seed := uint64(1); seed <= 50; seed++ {
		var want string
		for j, cuts := range splits {
			pops, sls := refSample(rand.New(rand.NewPCG(seed, 0xC4EC)), servedIn(cuts))
			if len(pops) != refPopulations || len(sls) != refSlices {
				t.Fatalf("seed %d: sampled %d populations and %d slices, want %d and %d",
					seed, len(pops), len(sls), refPopulations, refSlices)
			}
			for _, s := range append(pops, sls...) {
				if s.index >= refWindow {
					t.Fatalf("seed %d: sampled request %d/%d, beyond the first %d", seed, s.stream, s.index, refWindow)
				}
			}
			got := positions(pops) + "| " + positions(sls)
			if j == 0 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d: split %d sampled %s, one window sampled %s", seed, j, got, want)
			}
		}
	}
}
