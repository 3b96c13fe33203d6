package workload

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"exysim/internal/trace"
)

// SuiteSpec configures how the synthetic population stands in for the
// paper's 4,026 slices. The same spec (and seed) always produces exactly
// the same traces, so all six generations can be compared on identical
// input, matching the paper's constant-workload methodology (§II).
type SuiteSpec struct {
	// SlicesPerFamily scales population size. The paper's suite mixes
	// suites unevenly; we apply the per-family weights below.
	SlicesPerFamily int
	// InstsPerSlice is the detailed-region length of each slice.
	InstsPerSlice int
	// WarmupFrac is the fraction of InstsPerSlice prepended as warmup
	// (the paper uses 10M warmup / 100M detail = 0.1).
	WarmupFrac float64
	// Seed makes the whole population reproducible.
	Seed uint64
}

// Normalize clamps a spec to sane bounds so degenerate input (zero or
// negative sizes from a miswired CLI flag, a warmup fraction outside
// [0,1)) produces a small valid population instead of an empty or
// pathological one. Valid specs pass through unchanged, so normalizing
// is free for every existing caller.
func (s SuiteSpec) Normalize() SuiteSpec {
	if s.SlicesPerFamily < 1 {
		s.SlicesPerFamily = 1
	}
	if s.InstsPerSlice < 1 {
		s.InstsPerSlice = 1
	}
	if s.WarmupFrac < 0 || s.WarmupFrac != s.WarmupFrac { // negative or NaN
		s.WarmupFrac = 0
	}
	if s.WarmupFrac > 0.95 {
		s.WarmupFrac = 0.95
	}
	return s
}

// Preset suite sizes. Tests use Tiny; the figure CLIs default to Standard.
var (
	// TinySpec is for unit/integration tests: fast, still diverse.
	TinySpec = SuiteSpec{SlicesPerFamily: 2, InstsPerSlice: 20_000, WarmupFrac: 0.25, Seed: 0xE59}
	// QuickSpec is for benchmarks: one to two minutes for all gens.
	QuickSpec = SuiteSpec{SlicesPerFamily: 6, InstsPerSlice: 60_000, WarmupFrac: 0.25, Seed: 0xE59}
	// StandardSpec is the default population for regenerating figures.
	StandardSpec = SuiteSpec{SlicesPerFamily: 24, InstsPerSlice: 150_000, WarmupFrac: 0.2, Seed: 0xE59}
)

// weightedFamily scales how many slices a family contributes relative
// to SlicesPerFamily, echoing the paper's suite composition (SPEC and
// web suites dominate; microkernels are a seasoning).
type weightedFamily struct {
	fam    Family
	weight float64
}

// suiteFamilies is the one family table: Plan, Suite, Lookup, ByName
// and Families all read it, in this order.
var suiteFamilies = []weightedFamily{
	{SpecIntFamily(), 1.5},
	{SpecFPFamily(), 1.0},
	{WebFamily(), 1.5},
	{MobileFamily(), 1.25},
	{GameFamily(), 1.0},
	{TightLoopFamily(), 0.5},
	{ChaseFamily(), 0.5},
	{StreamFamily(), 0.5},
	{SMSFamily(), 0.5},
}

// SliceRef is one entry of a suite plan: everything about a slice except
// its instructions, which Slice generates on demand.
type SliceRef struct {
	Spec   SuiteSpec // normalized
	Family Family
	Index  int // index within the family
	Name   string
	Suite  string
	Warmup int
}

func newSliceRef(spec SuiteSpec, fam Family, idx int) SliceRef {
	return SliceRef{
		Spec:   spec,
		Family: fam,
		Index:  idx,
		Name:   sliceName(fam.Name, idx),
		Suite:  fam.Suite,
		Warmup: int(float64(spec.InstsPerSlice) * spec.WarmupFrac),
	}
}

// Slice generates the referenced slice: Warmup instructions of warmup
// followed by InstsPerSlice measured ones.
func (ref SliceRef) Slice() *trace.Slice {
	return ref.Family.Gen(ref.Index, ref.Spec.InstsPerSlice+ref.Warmup, ref.Warmup, ref.Spec.Seed)
}

// Header returns the slice's metadata (Name, Suite, Warmup) without its
// instructions: enough to plan shards over and to merge and summarize
// results, which never replay a slice.
func (ref SliceRef) Header() *trace.Slice {
	return &trace.Slice{Name: ref.Name, Suite: ref.Suite, Warmup: ref.Warmup}
}

// Plan lists the population Suite(spec) generates, in the same order,
// without generating any of it.
func Plan(spec SuiteSpec) []SliceRef {
	spec = spec.Normalize()
	var refs []SliceRef
	for _, wf := range suiteFamilies {
		n := int(float64(spec.SlicesPerFamily) * wf.weight)
		for i := 0; i < max(n, 1); i++ {
			refs = append(refs, newSliceRef(spec, wf.fam, i))
		}
	}
	return refs
}

// Suite materializes the full synthetic population for the spec. Each
// slice derives from (family, index, spec) alone, so slices generate in
// parallel on up to GOMAXPROCS goroutines and the population is
// identical to the serial construction, in Plan order. At standard
// scale generation is a visible fraction of a population run's wall
// time; the fan-out hides it.
func Suite(spec SuiteSpec) []*trace.Slice {
	refs := Plan(spec)
	out := make([]*trace.Slice, len(refs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(refs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(refs) {
					return
				}
				out[i] = refs[i].Slice()
			}
		}()
	}
	wg.Wait()
	return out
}

// CBPSuite materializes the Fig. 1 branch-stress traces: n slices whose
// history correlations reach up to maxDist branches back.
func CBPSuite(n, instsPerSlice, maxDist int, seed uint64) []*trace.Slice {
	fam := CBPFamily(maxDist)
	warm := instsPerSlice / 10
	out := make([]*trace.Slice, n)
	for i := range out {
		out[i] = fam.Gen(i, instsPerSlice+warm, warm, seed)
	}
	return out
}

// Lookup resolves a "family/index" name, e.g. "web/003" or "web/3", to
// its plan entry under spec without generating the slice. The index is
// a plain decimal ≥ 0; one beyond the spec's family count names a slice
// outside Suite(spec), generated the same way.
func Lookup(name string, spec SuiteSpec) (SliceRef, error) {
	fam, idx, _ := strings.Cut(name, "/")
	for _, wf := range suiteFamilies {
		if wf.fam.Name != fam {
			continue
		}
		i, err := strconv.Atoi(idx)
		if err != nil || strings.TrimLeft(idx, "0123456789") != "" {
			return SliceRef{}, fmt.Errorf("workload: slice %q: index %q is not a decimal number >= 0", name, idx)
		}
		return newSliceRef(spec.Normalize(), wf.fam, i), nil
	}
	return SliceRef{}, fmt.Errorf("workload: unknown slice %q (want family/index, e.g. web/003; families: %s)", name, strings.Join(Families(), ", "))
}

// ByName builds one slice from its "family/index" name (see Lookup); the
// result equals the Suite(spec) slice of the same name.
func ByName(name string, spec SuiteSpec) (*trace.Slice, error) {
	ref, err := Lookup(name, spec)
	if err != nil {
		return nil, err
	}
	return ref.Slice(), nil
}

// Families lists the family names available, for CLI help.
func Families() []string {
	names := make([]string, len(suiteFamilies))
	for i, wf := range suiteFamilies {
		names[i] = wf.fam.Name
	}
	return names
}
