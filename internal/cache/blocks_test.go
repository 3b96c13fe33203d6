package cache

import (
	"math/rand"
	"testing"
)

// flatCache is the reference layout the block-allocated Cache must
// reproduce: every set's ways preallocated in one flat sets×ways array,
// cleared wholesale by Reset. Its methods are the flat-array versions of
// Cache's, kept verbatim apart from the indexing.
type flatCache struct {
	sets, ways        int
	lineLog, tagShift uint
	secMask           uint64
	lines             []entry
	tags              []uint64
	lrus              []uint64
	tick              uint64
	stats             Stats
}

func newFlat(c *Cache) *flatCache {
	n := c.sets * c.ways
	return &flatCache{sets: c.sets, ways: c.ways, lineLog: c.lineLog, tagShift: c.tagShift, secMask: c.secMask,
		lines: make([]entry, n), tags: make([]uint64, n), lrus: make([]uint64, n)}
}

func (c *flatCache) Reset() {
	clear(c.lines)
	clear(c.tags)
	clear(c.lrus)
	c.tick = 0
	c.stats = Stats{}
}

func (c *flatCache) index(addr uint64) (set int, tag uint64, sub uint) {
	granule := addr >> c.tagShift
	return int(granule) & (c.sets - 1), granule, uint((addr >> c.lineLog) & c.secMask)
}

func (c *flatCache) find(addr uint64) (int, uint) {
	set, tag, sub := c.index(addr)
	base := set * c.ways
	want := tag<<1 | 1
	for w, t := range c.tags[base : base+c.ways] {
		if t == want {
			return base + w, sub
		}
	}
	return -1, sub
}

func (c *flatCache) Lookup(addr uint64, now uint64, prefetchProbe bool) Result {
	i, sub := c.find(addr)
	if i < 0 || c.lines[i].present&(1<<sub) == 0 {
		if !prefetchProbe {
			c.stats.Misses++
		}
		return Result{}
	}
	e := &c.lines[i]
	if prefetchProbe {
		return Result{Hit: true, ReadyAt: e.ready[sub]}
	}
	c.stats.Hits++
	c.tick++
	c.lrus[i] = c.tick
	if e.Reuse < 255 {
		e.Reuse++
	}
	res := Result{Hit: true, ReadyAt: e.ready[sub]}
	if e.Prefetched && !e.DemandHit {
		e.DemandHit = true
		res.WasPrefetch = true
	}
	return res
}

func (c *flatCache) Contains(addr uint64) bool {
	i, sub := c.find(addr)
	return i >= 0 && c.lines[i].present&(1<<sub) != 0
}

func (c *flatCache) Peek(addr uint64) *Line {
	i, sub := c.find(addr)
	if i < 0 || c.lines[i].present&(1<<sub) == 0 {
		return nil
	}
	return &c.lines[i].Line
}

func (c *flatCache) Fill(addr uint64, now, readyAt uint64, origin uint8, prio InsertPriority) Victim {
	prefetch := origin != OriginDemand
	set, tag, sub := c.index(addr)
	base := set * c.ways
	c.tick++
	want := tag<<1 | 1
	for w, t := range c.tags[base : base+c.ways] {
		if t == want {
			e := &c.lines[base+w]
			e.present |= 1 << sub
			e.ready[sub] = readyAt
			if prefetch {
				c.stats.PrefetchFills++
			} else {
				c.stats.DemandFills++
				e.Prefetched = prefetch && e.Prefetched
			}
			return Victim{}
		}
	}
	vw := 0
	bestLRU := c.lrus[base]
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w]&1 == 0 {
			vw = w
			break
		}
		if l := c.lrus[base+w]; l < bestLRU {
			vw, bestLRU = w, l
		}
	}
	victim := &c.lines[base+vw]
	var out Victim
	if victim.Valid {
		out = Victim{Addr: victim.Tag << c.tagShift, Line: victim.Line, Valid: true}
		c.stats.Evictions++
		if victim.Prefetched && !victim.DemandHit {
			c.stats.PrefetchUnused++
		}
	}
	*victim = entry{
		Line:    Line{Tag: tag, Valid: true, Prefetched: prefetch, Origin: origin},
		present: 1 << sub,
	}
	victim.ready[sub] = readyAt
	c.tags[base+vw] = tag<<1 | 1
	switch prio {
	case InsertElevated:
		c.lrus[base+vw] = c.tick
	default:
		oldest := c.tick
		for w := 0; w < c.ways; w++ {
			if w != vw && c.tags[base+w]&1 != 0 && c.lrus[base+w] < oldest {
				oldest = c.lrus[base+w]
			}
		}
		if oldest > 0 {
			oldest--
		}
		c.lrus[base+vw] = oldest
	}
	if prefetch {
		c.stats.PrefetchFills++
	} else {
		c.stats.DemandFills++
	}
	return out
}

func (c *flatCache) Touch(addr uint64, dirty bool) {
	if i, sub := c.find(addr); i >= 0 && c.lines[i].present&(1<<sub) != 0 && dirty {
		c.lines[i].Dirty = true
	}
}

func (c *flatCache) Invalidate(addr uint64) *Line {
	set, tag, sub := c.index(addr)
	base := set * c.ways
	want := tag<<1 | 1
	for w, t := range c.tags[base : base+c.ways] {
		if t != want {
			continue
		}
		e := &c.lines[base+w]
		if e.present&(1<<sub) == 0 {
			return nil
		}
		cp := e.Line
		e.present &^= 1 << sub
		if e.present == 0 {
			e.Valid = false
			c.tags[base+w] = 0
		}
		return &cp
	}
	return nil
}

func (c *flatCache) SetRealloc(addr uint64) {
	if i, sub := c.find(addr); i >= 0 && c.lines[i].present&(1<<sub) != 0 {
		c.lines[i].Realloc = true
	}
}

// sameState fails unless c holds exactly r's lines, recency ticks and
// counters: a claimed set's block equals the reference set row for row,
// and an unclaimed set is all-zero in the reference.
func sameState(t *testing.T, c *Cache, r *flatCache) {
	t.Helper()
	if c.tick != r.tick || c.stats != r.stats {
		t.Fatalf("tick/stats %d %+v, reference %d %+v", c.tick, c.stats, r.tick, r.stats)
	}
	if len(c.tags) != len(c.lines) || len(c.lrus) != len(c.lines) {
		t.Fatalf("slab lengths differ: lines %d tags %d lrus %d", len(c.lines), len(c.tags), len(c.lrus))
	}
	for set := 0; set < c.sets; set++ {
		ref := set * c.ways
		base := c.blocks.Base(set)
		for w := 0; w < c.ways; w++ {
			re, rt, rl := r.lines[ref+w], r.tags[ref+w], r.lrus[ref+w]
			var e entry
			var tg, l uint64
			if base >= 0 {
				e, tg, l = c.lines[base+w], c.tags[base+w], c.lrus[base+w]
			}
			if e != re || tg != rt || l != rl {
				t.Fatalf("set %d way %d (base %d): %+v tag %#x lru %d, reference %+v tag %#x lru %d",
					set, w, base, e, tg, l, re, rt, rl)
			}
		}
	}
}

// TestBlocksMatchFlatReference drives random operation sequences, with
// Resets between them, through the block-allocated Cache and the flat
// reference, and requires identical results, victims, recency and
// counters after every step — including when a Reset hands a set a
// block that still holds another set's stale rows.
func TestBlocksMatchFlatReference(t *testing.T) {
	geoms := []Config{
		{Name: "small", SizeKB: 4, Ways: 4, Latency: 1},
		{Name: "sectored", SizeKB: 64, Ways: 8, SectorLog2: 1, Latency: 1},
		{Name: "direct", SizeKB: 16, Ways: 1, Latency: 1},
	}
	for _, cfg := range geoms {
		t.Run(cfg.Name, func(t *testing.T) {
			c := New(cfg)
			r := newFlat(c)
			rnd := rand.New(rand.NewSource(int64(cfg.SizeKB)))
			for seq := 0; seq < 8; seq++ {
				c.Reset()
				r.Reset()
				// Each sequence works a different random subset of the
				// sets, so blocks are claimed in a different order.
				hot := 1 + rnd.Intn(c.sets)
				setBase := rnd.Intn(c.sets)
				randAddr := func() uint64 {
					set := (setBase + rnd.Intn(hot)) & (c.sets - 1)
					granule := uint64(rnd.Intn(3*c.ways)*c.sets + set)
					return granule<<c.tagShift | uint64(rnd.Intn(2))<<c.lineLog&(c.secMask<<c.lineLog)
				}
				for op := 0; op < 3000; op++ {
					addr := randAddr()
					now := uint64(op)
					switch k := rnd.Intn(10); k {
					case 0, 1:
						probe := k == 1
						if got, want := c.Lookup(addr, now, probe), r.Lookup(addr, now, probe); got != want {
							t.Fatalf("seq %d op %d Lookup(%#x, %v) = %+v, reference %+v", seq, op, addr, probe, got, want)
						}
					case 2, 3, 4:
						origin := uint8(rnd.Intn(int(OriginStandalone) + 1))
						prio := InsertPriority(rnd.Intn(2))
						if got, want := c.Fill(addr, now, now+3, origin, prio), r.Fill(addr, now, now+3, origin, prio); got != want {
							t.Fatalf("seq %d op %d Fill(%#x) victim %+v, reference %+v", seq, op, addr, got, want)
						}
					case 5:
						got, want := c.Invalidate(addr), r.Invalidate(addr)
						if (got == nil) != (want == nil) || got != nil && *got != *want {
							t.Fatalf("seq %d op %d Invalidate(%#x) = %+v, reference %+v", seq, op, addr, got, want)
						}
					case 6:
						c.Touch(addr, true)
						r.Touch(addr, true)
					case 7:
						c.SetRealloc(addr)
						r.SetRealloc(addr)
					case 8:
						if got, want := c.Contains(addr), r.Contains(addr); got != want {
							t.Fatalf("seq %d op %d Contains(%#x) = %v, reference %v", seq, op, addr, got, want)
						}
					case 9:
						got, want := c.Peek(addr), r.Peek(addr)
						if (got == nil) != (want == nil) || got != nil && *got != *want {
							t.Fatalf("seq %d op %d Peek(%#x) = %+v, reference %+v", seq, op, addr, got, want)
						}
					}
					if op%500 == 499 {
						sameState(t, c, r)
					}
				}
				sameState(t, c, r)
			}
		})
	}
}
