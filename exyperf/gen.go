package main

import (
	"fmt"
	"math/rand/v2"

	"exysim/internal/branch"
	"exysim/internal/serve"
)

// Request generation. Every request derives from the run's --seed alone:
// each client draws from its own PCG stream, so the k-th request of
// client i is fixed by (seed, i, k) however the closed loops interleave.
// Set-up (priming) requests draw from a stream no client uses.

// sliceFamilies alternates memory-bound and branch-bound families, so
// consecutive slice jobs stress the memory hierarchy and the front end
// in turn.
var sliceFamilies = []string{"micro.chase", "micro.tight", "micro.stream", "web", "micro.sms", "specint"}

// sliceGens are the generations slice jobs run on: the first and the
// last shipped core, whose per-instruction costs differ the most.
var sliceGens = []string{"M1", "M6"}

const (
	sliceInsts   = 100_000 // measured instructions of one slice job
	sliceIndices = 4       // slice indices drawn per family
)

// Request kinds a stream produces.
const (
	kindPopulation = "population" // tiny synthetic sweep, fresh seed
	kindSlice      = "slice"      // one (generation, slice) pair, fresh seed
	kindM7         = "m7"         // trace-population sweep with a new M7 predictor
)

// stream is one client's request sequence.
type stream struct {
	r      *rand.Rand
	kind   string
	id     int // stream index; keeps M7 geometries of different streams apart
	stride int // number of streams sharing the M7 geometry space
	n      int // requests drawn so far
	trace  string
}

// newStream returns stream id of the run seeded by seed. stride is the
// number of distinct stream ids in the run; trace names the population
// M7 requests sweep.
func newStream(seed uint64, id, stride int, kind, trace string) *stream {
	return &stream{
		r:      rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15^uint64(id))),
		kind:   kind,
		id:     id,
		stride: stride,
		trace:  trace,
	}
}

// next draws the stream's next request.
func (s *stream) next() serve.JobRequest {
	k := s.n
	s.n++
	switch s.kind {
	case kindSlice:
		fam := sliceFamilies[k%len(sliceFamilies)]
		return serve.JobRequest{
			Kind:  "slice",
			Gen:   sliceGens[(k/len(sliceFamilies))%len(sliceGens)],
			Slice: fmt.Sprintf("%s/%d", fam, s.r.IntN(sliceIndices)),
			Spec:  &serve.SpecRequest{Preset: "tiny", InstsPerSlice: sliceInsts, Seed: s.seed()},
		}
	case kindM7:
		return serve.JobRequest{Trace: s.trace, M7: &serve.M7Request{Predictor: s.m7Spec(k)}}
	default:
		return serve.JobRequest{Spec: &serve.SpecRequest{Preset: "tiny", Seed: s.seed()}}
	}
}

// seed draws a workload seed; 0 would select the preset's default seed.
func (s *stream) seed() uint64 {
	for {
		if v := s.r.Uint64(); v != 0 {
			return v
		}
	}
}

// m7Spec draws the k-th TAGE-SC-L geometry of the stream, around the
// default M7 geometry. The aging period is unique per (stream, k), so no
// geometry repeats within a run and every M7 column warms cold; about a
// third of the requests also carry an ITTAGE indirect predictor.
func (s *stream) m7Spec(k int) branch.PredictorSpec {
	c := branch.M7TAGEConfig()
	c.Banks = 6 + s.r.IntN(9)
	c.BankRows = 256 << s.r.IntN(4)
	c.TagBits = 8 + s.r.IntN(5)
	c.HistMin = 3 + s.r.IntN(3)
	c.HistMax = 200 + 40*s.r.IntN(21)
	c.SCTables = 2 + s.r.IntN(4)
	c.AgingPeriod = 1<<17 + 1024*(k*s.stride+s.id)
	spec := branch.TAGESpec(c)
	if s.r.IntN(3) == 0 {
		it := branch.M7ITTAGEConfig()
		it.Banks = 4 + s.r.IntN(5)
		it.BankRows = 256 << s.r.IntN(3)
		spec.Indirect = &it
	}
	return spec
}
