package main

import (
	"encoding/json"
	"testing"
)

func draw(seed uint64, id int, kind string, n int) []string {
	s := newStream(seed, id, 3, kind, "pop")
	out := make([]string, n)
	for i := range out {
		b, err := json.Marshal(s.next())
		if err != nil {
			panic(err)
		}
		out[i] = string(b)
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, kind := range []string{kindPopulation, kindSlice, kindM7} {
		a, b := draw(7, 0, kind, 40), draw(7, 0, kind, 40)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: seed 7 request %d differs between draws:\n%s\n%s", kind, i, a[i], b[i])
			}
		}
		for _, other := range [][]string{draw(8, 0, kind, 40), draw(7, 1, kind, 40)} {
			same := 0
			for i := range a {
				if a[i] == other[i] {
					same++
				}
			}
			if same == len(a) {
				t.Errorf("%s: a different seed or stream gave the identical sequence", kind)
			}
		}
	}
}

func TestSliceStreamRotatesFamiliesAndGens(t *testing.T) {
	s := newStream(1, 0, 1, kindSlice, "")
	seen := map[string]bool{}
	for i := 0; i < len(sliceFamilies)*len(sliceGens); i++ {
		r := s.next()
		if r.Spec.InstsPerSlice != sliceInsts || r.Spec.Seed == 0 {
			t.Fatalf("request %d: bad spec %+v", i, *r.Spec)
		}
		fam := r.Slice[:len(r.Slice)-2]
		seen[r.Gen+" "+fam] = true
	}
	if want := len(sliceFamilies) * len(sliceGens); len(seen) != want {
		t.Fatalf("one rotation covered %d (gen, family) pairs, want %d", len(seen), want)
	}
}

func TestM7GeometriesValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	indirect := 0
	for id := 0; id < 3; id++ {
		s := newStream(42, id, 3, kindM7, "pop")
		for k := 0; k < 60; k++ {
			r := s.next()
			spec := r.M7.Predictor
			if err := spec.Validate(); err != nil {
				t.Fatalf("stream %d request %d: %v", id, k, err)
			}
			key := spec.String()
			if seen[key] {
				t.Fatalf("stream %d request %d repeats geometry %s", id, k, key)
			}
			seen[key] = true
			if spec.Indirect != nil {
				indirect++
			}
		}
	}
	if indirect == 0 || indirect == len(seen) {
		t.Fatalf("%d of %d requests carry ITTAGE; want some but not all", indirect, len(seen))
	}
}
