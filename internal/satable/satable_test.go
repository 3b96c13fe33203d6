package satable

import "testing"

func TestGeometry(t *testing.T) {
	cases := []struct {
		cap, target, sets, ways int
	}{
		{64, 4, 16, 4},
		{48, 4, 8, 6},
		{16, 4, 4, 4},
		{8, 4, 2, 4},
		{32, 4, 8, 4},
		{256, 4, 64, 4},
		{1, 4, 1, 1},
	}
	for _, c := range cases {
		s, w := Geometry(c.cap, c.target)
		if s != c.sets || w != c.ways {
			t.Errorf("Geometry(%d,%d) = %dx%d, want %dx%d", c.cap, c.target, s, w, c.sets, c.ways)
		}
		if s*w > c.cap {
			t.Errorf("Geometry(%d,%d) over capacity: %d", c.cap, c.target, s*w)
		}
	}
}

func TestInsertLookupRemove(t *testing.T) {
	tb := New[int](4, 2)
	slot, existed, ev := tb.Insert(10)
	if existed || ev.OK {
		t.Fatal("fresh insert reported existed/evicted")
	}
	*slot = 42
	if got := tb.Lookup(10); got == nil || *got != 42 {
		t.Fatalf("Lookup(10) = %v", got)
	}
	if tb.Lookup(11) != nil {
		t.Fatal("phantom hit")
	}
	slot2, existed, _ := tb.Insert(10)
	if !existed || *slot2 != 42 {
		t.Fatal("re-insert must return the live slot untouched")
	}
	if v, ok := tb.Remove(10); !ok || v != 42 {
		t.Fatalf("Remove = %v,%v", v, ok)
	}
	if tb.Lookup(10) != nil || tb.Len() != 0 {
		t.Fatal("entry survived Remove")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	tb := New[int](1, 2) // single set: every key conflicts
	a, _, _ := tb.Insert(1)
	*a = 100
	b, _, _ := tb.Insert(2)
	*b = 200
	tb.Lookup(1) // key 2 becomes LRU
	_, _, ev := tb.Insert(3)
	if !ev.OK || ev.Key != 2 || ev.Val != 200 {
		t.Fatalf("expected key 2 evicted with value 200, got %+v", ev)
	}
	if tb.Lookup(1) == nil || tb.Lookup(3) == nil || tb.Peek(2) != nil {
		t.Fatal("wrong survivors after eviction")
	}
}

func TestInsertZeroesReusedSlot(t *testing.T) {
	tb := New[int](1, 1)
	s, _, _ := tb.Insert(1)
	*s = 7
	s2, existed, ev := tb.Insert(2)
	if existed || !ev.OK || ev.Val != 7 {
		t.Fatalf("eviction not reported: existed=%v ev=%+v", existed, ev)
	}
	if *s2 != 0 {
		t.Fatal("reused slot not zeroed")
	}
}

func TestAtAndEvictAt(t *testing.T) {
	tb := New[int](2, 2)
	tb.Insert(5)
	found := -1
	for i := 0; i < tb.Cap(); i++ {
		if k, _, ok := tb.At(i); ok && k == 5 {
			found = i
		}
	}
	if found < 0 {
		t.Fatal("At never surfaced key 5")
	}
	tb.EvictAt(found)
	if tb.Len() != 0 || tb.Peek(5) != nil {
		t.Fatal("EvictAt did not invalidate")
	}
}

func TestNoAllocSteadyState(t *testing.T) {
	tb := New[[4]uint64](16, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		for k := uint64(0); k < 100; k++ {
			if tb.Lookup(k) == nil {
				tb.Insert(k)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state table ops allocated %.1f times per run", allocs)
	}
}

func TestReset(t *testing.T) {
	tb := New[int](2, 2)
	tb.Insert(1)
	tb.Insert(2)
	tb.Reset()
	if tb.Len() != 0 || tb.Peek(1) != nil || tb.Peek(2) != nil {
		t.Fatal("Reset left entries live")
	}
}

func TestBlocksClaimInFirstFillOrder(t *testing.T) {
	b := NewBlocks(8, 3)
	slab := Slab[int](&b)
	if cap(slab) != 24 || len(slab) != 0 {
		t.Fatalf("slab len %d cap %d, want 0 and 24", len(slab), cap(slab))
	}
	for _, set := range []int{5, 2, 5} {
		base, fresh := b.Claim(set)
		if fresh {
			slab = Grow(slab, 3)
		}
		if got := b.Base(set); got != base {
			t.Fatalf("Base(%d) = %d after Claim returned %d", set, got, base)
		}
	}
	if b.Base(5) != 0 || b.Base(2) != 3 || b.Base(0) != -1 || len(slab) != 6 {
		t.Fatalf("bases 5:%d 2:%d 0:%d, slab len %d; want 0, 3, -1, 6", b.Base(5), b.Base(2), b.Base(0), len(slab))
	}
	slab[4] = 7
	b.Reset()
	slab = slab[:0]
	if b.Base(5) != -1 || b.Base(2) != -1 {
		t.Fatal("Reset left a set claimed")
	}
	// The first set claimed after Reset gets block 0 again, cleared.
	if base, fresh := b.Claim(2); base != 0 || !fresh {
		t.Fatalf("Claim(2) after Reset = %d, %v; want 0, true", base, fresh)
	}
	slab = Grow(slab, 3)
	slab = Grow(slab, 3)
	if slab[4] != 0 {
		t.Fatal("Grow exposed a stale row")
	}
}
