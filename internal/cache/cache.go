// Package cache implements the set-associative cache model used for the
// L1 instruction/data caches, the (optionally sectored) L2, and the
// exclusive L3 of Table I, including the metadata that §VIII-A's
// coordinated exclusive-hierarchy management and §VIII-D's adaptive
// prefetch confidence rely on: per-line prefetched/used bits, reuse
// counters, and insertion priorities.
package cache

import (
	"exysim/internal/obs"
	"exysim/internal/satable"
)

// LineBytes is the data line size used throughout the hierarchy (64B;
// the L2 tags are sectored at a 128B granule on top of this, §VIII-B).
const LineBytes = 64

// InsertPriority selects the replacement state a fill starts in; the
// coordinated L2→L3 castout policy chooses between them (§VIII-A).
type InsertPriority uint8

// Insertion priorities.
const (
	// InsertOrdinary starts near LRU: a cheap victim if never touched.
	InsertOrdinary InsertPriority = iota
	// InsertElevated starts at MRU: protected for a full LRU round.
	InsertElevated
)

// Line is one cache line's tag state plus the management metadata the
// paper's policies consume.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool

	// Prefetched marks lines brought in by a prefetcher and not yet
	// demanded; DemandHit marks a prefetched line that was used. The
	// standalone prefetcher's high-confidence mode tracks accuracy with
	// exactly these bits (§VIII-D).
	Prefetched bool
	DemandHit  bool

	// Reuse counts hits while resident at this level; the coordinated
	// castout policy uses it to pick an L3 insertion priority (§VIII-A).
	Reuse uint8

	// Realloc marks a line that was filled back from the L3 after a
	// previous castout — the "subsequent re-allocation" signal the L2
	// tracks (§VIII-A).
	Realloc bool

	// Origin tags which engine brought a prefetched line in, so
	// eviction feedback reaches the right filter (buddy, standalone).
	Origin uint8
}

// Prefetch origins recorded in Line.Origin.
const (
	OriginDemand uint8 = iota
	OriginMSP
	OriginSMS
	OriginBuddy
	OriginStandalone
)

// Stats counts cache-level events.
type Stats struct {
	Hits, Misses   uint64
	PrefetchFills  uint64
	DemandFills    uint64
	Evictions      uint64
	PrefetchUnused uint64 // prefetched lines evicted without a demand hit
}

// HitRate returns hits/(hits+misses).
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Config sizes a cache.
type Config struct {
	Name   string
	SizeKB int
	Ways   int
	// SectorLog2, when nonzero, groups 2^SectorLog2 consecutive data
	// lines under one tag (the L2's 128B sectoring = 1, §VIII-B). A
	// sector's lines fill independently; a missing buddy line costs no
	// extra tag.
	SectorLog2 uint
	// Latency is the load-to-use latency in cycles at this level.
	Latency int
	// BytesPerCycle is the level's fill bandwidth (Table I's "L2 BW"
	// row: 16B/cycle on M1/M2 up to 64B/cycle on M6). Zero disables
	// port modelling. A 64B line transfer occupies the port for
	// 64/BytesPerCycle cycles; concurrent fills queue.
	BytesPerCycle int
}

// Cache is a set-associative, write-back, (optionally sectored) cache.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	lineLog  uint
	tagShift uint   // lineLog + SectorLog2: address bits above tag granule
	secMask  uint64 // (1<<SectorLog2)-1, 0 when unsectored
	// blocks maps each set to its block of ways rows in the slabs below,
	// claimed on the set's first fill; an untouched set holds no lines.
	blocks satable.Blocks
	// lines is the row slab of entries.
	lines []entry
	// tags shadows lines' (Tag, Valid) as tag<<1|valid so the hit scan
	// walks one packed word per way instead of a whole entry.
	tags []uint64
	// lrus holds per-way recency ticks parallel to lines, so victim
	// selection scans one word per way instead of a whole entry.
	lrus []uint64
	tick uint64

	// portBusyUntil models fill bandwidth (Config.BytesPerCycle).
	portBusyUntil uint64

	stats Stats
}

// entry is one tag plus its sector presence bits.
type entry struct {
	Line
	present uint8 // bitmap of valid data lines within the sector
	ready   [2]uint64
}

// New builds the cache. Sets are derived from size/ways/line.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeKB <= 0 {
		panic("cache: invalid geometry")
	}
	if cfg.SectorLog2 > 1 {
		panic("cache: at most 2-line sectors supported")
	}
	linesTotal := cfg.SizeKB * 1024 / LineBytes
	tagsTotal := linesTotal >> cfg.SectorLog2
	sets := tagsTotal / cfg.Ways
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		lineLog:  6,
		tagShift: 6 + cfg.SectorLog2,
		secMask:  1<<cfg.SectorLog2 - 1,
		blocks:   satable.NewBlocks(sets, cfg.Ways),
	}
	c.lines = satable.Slab[entry](&c.blocks)
	c.tags = satable.Slab[uint64](&c.blocks)
	c.lrus = satable.Slab[uint64](&c.blocks)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters while keeping contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset restores the cache to its post-New cold state in place: every
// line invalid, recency and port state rewound, counters cleared. Only
// the set index is cleared; the row slabs are truncated, keeping their
// allocations for pooled simulators.
func (c *Cache) Reset() {
	c.blocks.Reset()
	c.lines = c.lines[:0]
	c.tags = c.tags[:0]
	c.lrus = c.lrus[:0]
	c.tick = 0
	c.portBusyUntil = 0
	c.stats = Stats{}
}

// RegisterMetrics publishes the level's counters into an observability
// scope (e.g. "mem.l1d.hits").
func (c *Cache) RegisterMetrics(sc *obs.Scope) {
	sc.Counter("hits", func() uint64 { return c.stats.Hits })
	sc.Counter("misses", func() uint64 { return c.stats.Misses })
	sc.Counter("prefetch_fills", func() uint64 { return c.stats.PrefetchFills })
	sc.Counter("demand_fills", func() uint64 { return c.stats.DemandFills })
	sc.Counter("evictions", func() uint64 { return c.stats.Evictions })
	sc.Counter("prefetch_unused", func() uint64 { return c.stats.PrefetchUnused })
	sc.Gauge("hit_rate", func() float64 { return c.stats.HitRate() })
}

// Sets returns the set count (for tests).
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) index(addr uint64) (set int, tag uint64, sub uint) {
	granule := addr >> c.tagShift
	set = int(granule) & (c.sets - 1)
	tag = granule
	sub = uint((addr >> c.lineLog) & c.secMask)
	return set, tag, sub
}

// find returns the lines/lrus row of addr's entry (-1 if absent) plus
// the sector sub-line.
func (c *Cache) find(addr uint64) (int, uint) {
	set, tag, sub := c.index(addr)
	base := c.blocks.Base(set)
	if base < 0 {
		return -1, sub
	}
	want := tag<<1 | 1
	for w, t := range c.tags[base : base+c.ways] {
		if t == want {
			return base + w, sub
		}
	}
	return -1, sub
}

// Result describes a lookup.
type Result struct {
	Hit bool
	// ReadyAt is when the data is available (only meaningful on a hit;
	// 0 means already resident).
	ReadyAt uint64
	// WasPrefetch reports the hit consumed a prefetched line for the
	// first time.
	WasPrefetch bool
}

// Lookup probes for addr at cycle now, updating LRU and metadata on a
// hit. prefetchProbe lookups (from prefetch filters) do not perturb
// stats or recency.
func (c *Cache) Lookup(addr uint64, now uint64, prefetchProbe bool) Result {
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

// Contains reports residency without any side effects.
func (c *Cache) Contains(addr uint64) bool {
	i, sub := c.find(addr)
	return i >= 0 && c.lines[i].present&(1<<sub) != 0
}

// Peek returns the line metadata without side effects (nil if absent).
func (c *Cache) Peek(addr uint64) *Line {
	i, sub := c.find(addr)
	if i < 0 || c.lines[i].present&(1<<sub) == 0 {
		return nil
	}
	return &c.lines[i].Line
}

// Victim describes an evicted line.
type Victim struct {
	Addr  uint64
	Line  Line
	Valid bool
}

// PortDelay reserves the fill port for one line transfer beginning at
// now and returns the cycles the transfer had to wait for the port. With
// BytesPerCycle unset it is free.
func (c *Cache) PortDelay(now uint64) int {
	if c.cfg.BytesPerCycle <= 0 {
		return 0
	}
	occupancy := uint64((LineBytes + c.cfg.BytesPerCycle - 1) / c.cfg.BytesPerCycle)
	start := now
	if c.portBusyUntil > start {
		start = c.portBusyUntil
	}
	c.portBusyUntil = start + occupancy
	return int(start - now)
}

// Fill installs addr at cycle now with data arriving at readyAt.
// origin marks which engine initiated the fill (OriginDemand for demand
// misses); prio selects insertion recency. The displaced victim (if any)
// is returned for writeback or exclusive-hierarchy castout handling.
func (c *Cache) Fill(addr uint64, now, readyAt uint64, origin uint8, prio InsertPriority) Victim {
	prefetch := origin != OriginDemand
	set, tag, sub := c.index(addr)
	base, fresh := c.blocks.Claim(set)
	if fresh {
		c.lines = satable.Grow(c.lines, c.ways)
		c.tags = satable.Grow(c.tags, c.ways)
		c.lrus = satable.Grow(c.lrus, c.ways)
	}
	c.tick++
	// Sector hit: another line under the same tag.
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
	// Choose a victim way: invalid first, else LRU. Both scans walk the
	// packed shadow arrays; entries are only touched once chosen.
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
		out = Victim{
			Addr:  victim.Tag << c.tagShift,
			Line:  victim.Line,
			Valid: true,
		}
		c.stats.Evictions++
		if victim.Prefetched && !victim.DemandHit {
			c.stats.PrefetchUnused++
		}
	}
	*victim = entry{
		Line: Line{
			Tag:        tag,
			Valid:      true,
			Prefetched: prefetch,
			Origin:     origin,
		},
		present: 1 << sub,
	}
	victim.ready[sub] = readyAt
	c.tags[base+vw] = tag<<1 | 1
	switch prio {
	case InsertElevated:
		c.lrus[base+vw] = c.tick
	default:
		// Ordinary: insert strictly below the set's current LRU so an
		// untouched line is the next victim.
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

// Touch marks a store hit dirty.
func (c *Cache) Touch(addr uint64, dirty bool) {
	if i, sub := c.find(addr); i >= 0 && c.lines[i].present&(1<<sub) != 0 && dirty {
		c.lines[i].Dirty = true
	}
}

// Invalidate removes addr's line (used by the exclusive L3 when a line
// moves back up, §VIII-A). It returns the line's metadata.
func (c *Cache) Invalidate(addr uint64) *Line {
	set, tag, sub := c.index(addr)
	base := c.blocks.Base(set)
	if base < 0 {
		return nil
	}
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

// SetRealloc marks a line as re-allocated from the outer level.
func (c *Cache) SetRealloc(addr uint64) {
	if i, sub := c.find(addr); i >= 0 && c.lines[i].present&(1<<sub) != 0 {
		c.lines[i].Realloc = true
	}
}

// BuddyAddr returns the other 64B line of addr's 128B sector pair
// (§VIII-B's buddy prefetch target).
func BuddyAddr(addr uint64) uint64 { return addr ^ LineBytes }
