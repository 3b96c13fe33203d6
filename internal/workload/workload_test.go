package workload

import (
	"math"
	"strings"
	"testing"

	"exysim/internal/isa"
	"exysim/internal/rng"
	"exysim/internal/trace"
)

// allFamilies returns one representative generator per family plus the
// CBP family, for exhaustive structural checks.
func allFamilies() []Family {
	fams := []Family{}
	for _, wf := range suiteFamilies {
		fams = append(fams, wf.fam)
	}
	fams = append(fams, CBPFamily(200))
	return fams
}

func TestEveryFamilyProducesValidTraces(t *testing.T) {
	for _, fam := range allFamilies() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			s := fam.Gen(0, 20000, 2000, 0xABC)
			if s.Len() != 20000 {
				t.Fatalf("len=%d want 20000", s.Len())
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
		})
	}
}

func TestGenerationDeterminism(t *testing.T) {
	for _, fam := range allFamilies() {
		a := fam.Gen(3, 8000, 800, 99)
		b := fam.Gen(3, 8000, 800, 99)
		if len(a.Insts) != len(b.Insts) {
			t.Fatalf("%s: lengths differ", fam.Name)
		}
		for i := range a.Insts {
			if a.Insts[i] != b.Insts[i] {
				t.Fatalf("%s: diverged at %d", fam.Name, i)
			}
		}
	}
}

func TestSlicesWithinFamilyDiffer(t *testing.T) {
	fam := SpecIntFamily()
	a := fam.Gen(0, 8000, 800, 99)
	b := fam.Gen(1, 8000, 800, 99)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == b.Insts[i] {
			same++
		}
	}
	if same == len(a.Insts) {
		t.Fatal("distinct slice indexes produced identical traces")
	}
}

func TestWebFamilyHasLargeIndirectFanout(t *testing.T) {
	fam := WebFamily()
	targets := map[uint64]map[uint64]struct{}{}
	foundBig := false
	for idx := 0; idx < 6 && !foundBig; idx++ {
		s := fam.Gen(idx, 60000, 0, 0xE59)
		for i := range s.Insts {
			in := &s.Insts[i]
			if in.Branch.IsIndirect() {
				m := targets[in.PC]
				if m == nil {
					m = map[uint64]struct{}{}
					targets[in.PC] = m
				}
				m[in.Target] = struct{}{}
				if len(m) >= 32 {
					foundBig = true
				}
			}
		}
	}
	if !foundBig {
		t.Fatal("web family never produced an indirect branch with >=32 targets")
	}
}

func TestChaseFamilyIsSerialAndIrregular(t *testing.T) {
	s := ChaseFamily().Gen(0, 30000, 0, 0xE59)
	st := s.Summarize()
	if st.Loads == 0 {
		t.Fatal("no loads")
	}
	// Pointer chase must touch many unique lines (working set >> cache).
	if st.UniqueLines < 1000 {
		t.Fatalf("chase touches only %d lines", st.UniqueLines)
	}
	// And the loads must form a dependence chain via the chain register.
	serial := 0
	for i := range s.Insts {
		in := &s.Insts[i]
		if in.Class == isa.Load && in.Src1 == 28 && in.Dst == 28 {
			serial++
		}
	}
	if serial < st.Loads/2 {
		t.Fatalf("only %d of %d loads are chained", serial, st.Loads)
	}
}

func TestStreamFamilyIsStrided(t *testing.T) {
	s := StreamFamily().Gen(0, 30000, 0, 0xE59)
	// Gather per-PC address deltas; the dominant delta for most load PCs
	// should repeat (stride behaviour).
	last := map[uint64]uint64{}
	deltas := map[uint64]map[int64]int{}
	total := map[uint64]int{}
	for i := range s.Insts {
		in := &s.Insts[i]
		if in.Class != isa.Load {
			continue
		}
		if prev, ok := last[in.PC]; ok {
			d := int64(in.Addr - prev)
			m := deltas[in.PC]
			if m == nil {
				m = map[int64]int{}
				deltas[in.PC] = m
			}
			m[d]++
			total[in.PC]++
		}
		last[in.PC] = in.Addr
	}
	strided := 0
	pcs := 0
	for pc, m := range deltas {
		if total[pc] < 20 {
			continue
		}
		pcs++
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		if float64(best) >= 0.25*float64(total[pc]) {
			strided++
		}
	}
	if pcs == 0 || strided*2 < pcs {
		t.Fatalf("stream family not strided: %d of %d PCs", strided, pcs)
	}
}

func TestTightLoopFamilyHasSmallFootprint(t *testing.T) {
	s := TightLoopFamily().Gen(0, 30000, 0, 0xE59)
	st := s.Summarize()
	if st.UniquePCs > 2500 {
		t.Fatalf("tight loop code footprint too large: %d PCs", st.UniquePCs)
	}
	if st.BranchRate() < 0.03 {
		t.Fatalf("tight loop has too few branches: %v", st.BranchRate())
	}
}

func TestCallsAndReturnsBalance(t *testing.T) {
	s := SpecIntFamily().Gen(0, 40000, 0, 0xE59)
	depth, maxDepth, underflow := 0, 0, 0
	for i := range s.Insts {
		switch s.Insts[i].Branch {
		case isa.BranchCall, isa.BranchIndCall:
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case isa.BranchReturn:
			depth--
			if depth < 0 {
				underflow++
				depth = 0
			}
		}
	}
	if underflow > 0 {
		t.Fatalf("%d return underflows", underflow)
	}
	if maxDepth == 0 {
		t.Fatal("no calls at all")
	}
}

func TestSuiteComposition(t *testing.T) {
	slices := Suite(TinySpec)
	if len(slices) < 9 {
		t.Fatalf("suite too small: %d", len(slices))
	}
	suites := map[string]int{}
	for _, s := range slices {
		suites[s.Suite]++
		if s.Warmup <= 0 || s.Warmup >= s.Len() {
			t.Fatalf("bad warmup %d for %s", s.Warmup, s.Name)
		}
	}
	for _, want := range []string{"spec", "web", "mobile", "game", "micro"} {
		if suites[want] == 0 {
			t.Fatalf("suite %q missing", want)
		}
	}
}

func TestSuiteTracesValidate(t *testing.T) {
	for _, s := range Suite(TinySpec) {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("web/002", TinySpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Suite != "web" {
		t.Fatalf("suite=%s", s.Suite)
	}
	if _, err := ByName("nosuch/001", TinySpec); err == nil {
		t.Fatal("expected error for unknown family")
	}
}

func TestCBPSuiteCorrelations(t *testing.T) {
	slices := CBPSuite(2, 15000, 150, 0xE59)
	if len(slices) != 2 {
		t.Fatalf("n=%d", len(slices))
	}
	for _, s := range slices {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		st := s.Summarize()
		if st.BranchRate() < 0.12 {
			t.Fatalf("cbp branch rate too low: %v", st.BranchRate())
		}
	}
}

func TestFamiliesListed(t *testing.T) {
	names := Families()
	if len(names) != len(suiteFamilies) {
		t.Fatalf("families=%v", names)
	}
}

func TestTakenBranchLeadStats(t *testing.T) {
	// §IV-A: across the paper's workloads the lead branch is taken ~60%
	// of the time. Our population should land in the same regime: the
	// majority of dynamic branches are taken (loops, calls, returns).
	taken, totalBr := 0, 0
	for _, s := range Suite(TinySpec) {
		for i := range s.Insts {
			in := &s.Insts[i]
			if in.Branch.IsBranch() {
				totalBr++
				if in.Taken {
					taken++
				}
			}
		}
	}
	rate := float64(taken) / float64(totalBr)
	// The synthetic population is more taken-heavy than the paper's
	// (loop kernels dominate); the regime check only guards against
	// degenerate all-taken or NT-dominated populations.
	if rate < 0.45 || rate > 0.97 {
		t.Fatalf("population taken rate %v outside plausible band", rate)
	}
}

var _ trace.Reader = (*trace.Slice)(nil)

var _ = rng.Mix64 // keep import for doc reference

// planSpecs covers the tiny and quick presets (quick at a reduced
// length, which does not change its plan) and degenerate specs that
// Normalize clamps.
var planSpecs = map[string]SuiteSpec{
	"tiny":          TinySpec,
	"quick":         {SlicesPerFamily: QuickSpec.SlicesPerFamily, InstsPerSlice: 3_000, WarmupFrac: QuickSpec.WarmupFrac, Seed: QuickSpec.Seed},
	"warmup 0.99":   {SlicesPerFamily: 1, InstsPerSlice: 4_000, WarmupFrac: 0.99, Seed: 7},
	"negative warm": {SlicesPerFamily: 1, InstsPerSlice: 2_000, WarmupFrac: -1, Seed: 7},
	"zero sizes":    {WarmupFrac: math.NaN(), Seed: 7},
}

// TestByNameMatchesSuite: Plan headers carry every suite slice's
// metadata, and ByName rebuilds each family's first and last slice, by
// padded and unpadded name, byte-identically.
func TestByNameMatchesSuite(t *testing.T) {
	for name, spec := range planSpecs {
		refs, slices := Plan(spec), Suite(spec)
		if len(refs) != len(slices) {
			t.Fatalf("%s: plan lists %d slices, suite has %d", name, len(refs), len(slices))
		}
		family := func(i int) string {
			if i < 0 || i >= len(slices) {
				return ""
			}
			f, _, _ := strings.Cut(slices[i].Name, "/")
			return f
		}
		for i, sl := range slices {
			h := refs[i].Header()
			if h.Name != sl.Name || h.Suite != sl.Suite || h.Warmup != sl.Warmup || h.Weight != sl.Weight || len(h.Insts) != 0 {
				t.Fatalf("%s: header %d = %+v, suite slice is %s/%s warmup %d", name, i, h, sl.Name, sl.Suite, sl.Warmup)
			}
			fam, idx, _ := strings.Cut(sl.Name, "/")
			if family(i-1) == fam && family(i+1) == fam {
				continue
			}
			unpadded := fam + "/" + strings.TrimLeft(idx[:len(idx)-1], "0") + idx[len(idx)-1:]
			for _, n := range []string{sl.Name, unpadded} {
				got, err := ByName(n, spec)
				if err != nil {
					t.Fatalf("%s: ByName(%q): %v", name, n, err)
				}
				if got.Digest() != sl.Digest() {
					t.Fatalf("%s: ByName(%q) differs from the suite's %s (warmup %d vs %d)", name, n, sl.Name, got.Warmup, sl.Warmup)
				}
			}
		}
	}
}

func TestLookupRejectsMalformedNames(t *testing.T) {
	for _, name := range []string{
		"", "web", "web/", "/3", "nosuch/1", "web/3abc", "web/1/2", "web/-1",
		"web/+3", "web/ 3", "web/3 ", "web/0x3", "web/99999999999999999999999",
	} {
		if ref, err := Lookup(name, TinySpec); err == nil {
			t.Errorf("Lookup(%q) accepted as %s", name, ref.Name)
		}
	}
	for name, want := range map[string]string{
		"micro.chase/2": "micro.chase/002",
		"web/003":       "web/003",
		"web/0":         "web/000",
		"specint/1234":  "specint/1234",
	} {
		ref, err := Lookup(name, TinySpec)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		} else if ref.Name != want {
			t.Errorf("Lookup(%q) = %s, want %s", name, ref.Name, want)
		}
	}
}
