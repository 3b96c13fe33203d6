package workload

import (
	"testing"

	"exysim/internal/rng"
)

func testCtx(seed uint64) *emitCtx {
	return &emitCtx{r: rng.New(seed), budget: 1 << 30}
}

func TestStrideMemFollowsPattern(t *testing.T) {
	m := &strideMem{
		base: 0x1000, elem: 8,
		pattern: []strideStep{{stride: 2, count: 2}, {stride: 5, count: 1}},
		wsBytes: 1 << 20,
	}
	ctx := testCtx(1)
	var addrs []uint64
	for i := 0; i < 7; i++ {
		addrs = append(addrs, m.next(ctx))
	}
	// Deltas in bytes: +16,+16,+40 repeating (the paper's +2x2,+5x1 in
	// 8-byte elements, §VII-A).
	want := []int64{16, 16, 40, 16, 16, 40}
	for i, w := range want {
		if got := int64(addrs[i+1] - addrs[i]); got != w {
			t.Fatalf("delta %d: got %d want %d (addrs %v)", i, got, w, addrs)
		}
	}
}

func TestStrideMemWrapsWorkingSet(t *testing.T) {
	m := &strideMem{base: 0x1000, elem: 8, pattern: []strideStep{{stride: 8, count: 1}}, wsBytes: 4096}
	ctx := testCtx(2)
	for i := 0; i < 1000; i++ {
		a := m.next(ctx)
		if a < 0x1000 || a >= 0x1000+4096 {
			t.Fatalf("address %#x escaped the working set", a)
		}
	}
}

func TestStrideCloneIndependence(t *testing.T) {
	r := rng.New(3)
	base := &strideMem{base: 0x1000, elem: 8, pattern: []strideStep{{stride: 1, count: 1}}, wsBytes: 1 << 20}
	c1 := base.clone(r)
	c2 := base.clone(r)
	ctx := testCtx(4)
	a1, a2 := c1.next(ctx), c2.next(ctx)
	if a1 == a2 {
		t.Fatal("clones should walk distinct sub-arrays")
	}
	// Advancing one clone must not move the other.
	c1.next(ctx)
	if got := c2.next(ctx); got != a2+8 {
		t.Fatalf("clone 2 perturbed: %#x", got)
	}
}

func TestZipfMemStaysInWorkingSetAndSkews(t *testing.T) {
	z := &zipfMem{base: 0x2000, lines: 256, skew: 1.2, lineLog: 6}
	ctx := testCtx(5)
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		a := z.next(ctx)
		if a < 0x2000 || a >= 0x2000+256*64+64 {
			t.Fatalf("address %#x out of range", a)
		}
		counts[(a-0x2000)>>6]++
	}
	if counts[0] < counts[200]*3 {
		t.Fatalf("zipf skew too flat: line0=%d line200=%d", counts[0], counts[200])
	}
}

func TestChaseMemIsPermutationCycle(t *testing.T) {
	r := rng.New(7)
	const nodes = 64
	c := newChaseMem(r, 0x4000, nodes, 64)
	ctx := testCtx(8)
	seen := map[uint64]int{}
	for i := 0; i < nodes; i++ {
		seen[c.next(ctx)]++
	}
	// One full tour must visit every node exactly once.
	if len(seen) != nodes {
		t.Fatalf("tour visited %d distinct nodes, want %d", len(seen), nodes)
	}
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("node %#x visited %d times", a, n)
		}
	}
	// The second tour repeats the first (it is a cycle).
	first := c.next(ctx)
	if seen[first] != 1 {
		t.Fatal("cycle broken")
	}
}

func TestRegionMemRepeatsOffsets(t *testing.T) {
	r := rng.New(9)
	m := newRegionMem(r, 0x8000, 8, 2048, 4)
	ctx := testCtx(10)
	// First region: collect its 4 offsets.
	var offs []uint64
	base := uint64(0)
	for i := 0; i < 4; i++ {
		a := m.next(ctx)
		if i == 0 {
			base = a &^ 2047
		}
		offs = append(offs, a-base)
	}
	// Second region: same offsets, different base.
	var offs2 []uint64
	var base2 uint64
	for i := 0; i < 4; i++ {
		a := m.next(ctx)
		if i == 0 {
			base2 = a &^ 2047
		}
		offs2 = append(offs2, a-base2)
	}
	for i := range offs {
		if offs[i] != offs2[i] {
			t.Fatalf("offset %d differs across regions: %d vs %d", i, offs[i], offs2[i])
		}
	}
}

func TestStackMemSpan(t *testing.T) {
	m := &stackMem{base: 0x7000, span: 512}
	ctx := testCtx(11)
	for i := 0; i < 1000; i++ {
		a := m.next(ctx)
		if a < 0x7000 || a >= 0x7000+512 {
			t.Fatalf("stack access %#x out of span", a)
		}
	}
}

func TestPatternCondPeriodicity(t *testing.T) {
	p := newPatternCond(rng.New(12), 7)
	ctx := testCtx(13)
	var first []bool
	for i := 0; i < 7; i++ {
		first = append(first, p.next(ctx))
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 7; i++ {
			if p.next(ctx) != first[i] {
				t.Fatalf("pattern broke at rep %d pos %d", rep, i)
			}
		}
	}
}

func TestCorrCondTapsHistory(t *testing.T) {
	c := &corrCond{taps: []int{3}}
	ctx := testCtx(14)
	// Push a known history: T, N, T, N, ...
	for i := 0; i < 10; i++ {
		ctx.pushHist(i%2 == 0)
	}
	// Outcome must equal the outcome 3 back.
	if got, want := c.next(ctx), ctx.histAt(3); got != want {
		t.Fatalf("corr outcome %v want %v", got, want)
	}
	inv := &corrCond{taps: []int{3}, invert: true}
	if inv.next(ctx) == c.next(ctx) {
		t.Fatal("inverted tap should differ")
	}
}

func TestTripGenerators(t *testing.T) {
	ctx := testCtx(15)
	f := &fixedTrip{n: 9}
	for i := 0; i < 5; i++ {
		if f.next(ctx) != 9 {
			t.Fatal("fixedTrip drifted")
		}
	}
	pt := newPatternTrip(rng.New(16), 3, 4, 12)
	var cyc []int
	for i := 0; i < 3; i++ {
		v := pt.next(ctx)
		if v < 4 || v > 12 {
			t.Fatalf("patternTrip out of range: %d", v)
		}
		cyc = append(cyc, v)
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 3; i++ {
			if pt.next(ctx) != cyc[i] {
				t.Fatal("patternTrip not periodic")
			}
		}
	}
	g := &geomTrip{mean: 6, max: 20}
	for i := 0; i < 1000; i++ {
		v := g.next(ctx)
		if v < 1 || v > 21 {
			t.Fatalf("geomTrip out of range: %d", v)
		}
	}
}

func TestTargetSelectors(t *testing.T) {
	ctx := testCtx(17)
	s := &seqSel{n: 5, stride: 1}
	for i := 0; i < 15; i++ {
		if got := s.next(ctx); got != i%5 {
			t.Fatalf("seqSel[%d]=%d", i, got)
		}
	}
	z := &zipfSel{n: 8, skew: 1.0}
	for i := 0; i < 1000; i++ {
		if v := z.next(ctx); v < 0 || v >= 8 {
			t.Fatalf("zipfSel out of range: %d", v)
		}
	}
	m := newMarkovSel(rng.New(18), 16, 3)
	onPrimary := 0
	cur := m.cur
	for i := 0; i < 5000; i++ {
		want := m.primary[cur]
		got := m.next(ctx)
		if got == want {
			onPrimary++
		}
		cur = got
	}
	rate := float64(onPrimary) / 5000
	if rate < 0.85 || rate > 0.95 {
		t.Fatalf("markov fidelity %.3f outside [0.85, 0.95]", rate)
	}
}

func TestDivisorPeriodsClosed(t *testing.T) {
	ps := divisorPeriods(300)
	if len(ps) == 0 {
		t.Fatal("empty period set")
	}
	for _, p := range ps {
		if p < 2 || p > 300 {
			t.Fatalf("period %d out of range", p)
		}
		if 5040%p != 0 {
			t.Fatalf("period %d does not divide the base", p)
		}
	}
	if got := divisorPeriods(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("degenerate set %v", got)
	}
}

func TestLogUniformBounds(t *testing.T) {
	r := rng.New(19)
	for i := 0; i < 10000; i++ {
		v := logUniform(r, 3, 200)
		if v < 3 || v > 200 {
			t.Fatalf("logUniform out of bounds: %d", v)
		}
	}
	if logUniform(r, 7, 7) != 7 {
		t.Fatal("degenerate range")
	}
	// Log-uniformity: the decade [3,30) should receive far more than a
	// uniform share of draws.
	low := 0
	for i := 0; i < 10000; i++ {
		if logUniform(r, 3, 300) < 30 {
			low++
		}
	}
	if low < 4000 {
		t.Fatalf("distribution not log-skewed: %d/10000 below 30", low)
	}
}

func TestHardMassBand(t *testing.T) {
	r := rng.New(20)
	zeroish, heavy := 0, 0
	for i := 0; i < 1000; i++ {
		h := hardMass(r)
		switch {
		case h <= 0.004:
			zeroish++
		case h >= 0.02 && h <= 0.14:
			heavy++
		default:
			t.Fatalf("hardMass %v outside both bands", h)
		}
	}
	if zeroish < 600 || heavy < 200 {
		t.Fatalf("hardMass split %d/%d implausible", zeroish, heavy)
	}
}
