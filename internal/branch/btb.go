package branch

import (
	"exysim/internal/isa"
	"exysim/internal/rng"
	"exysim/internal/satable"
)

// BTBLineBytes is the branch-organization granule: the main BTBs hold up
// to eight sequential discovered branches per 128B cache line (§IV-A,
// Fig. 2); denser lines spill to the vBTB.
const BTBLineBytes = 128

// BranchesPerLine is the per-line branch slot count of the mBTB.
const BranchesPerLine = 8

// BTBEntry is one discovered branch. Targets may be stored encrypted
// when a TargetCipher is installed (§V); the stored value is whatever the
// cipher produced and is decrypted on the way out.
type BTBEntry struct {
	PC     uint64
	Target uint64 // stored (possibly encrypted) primary target

	// ZAT/ZOT replication (§IV-E): the target of the next
	// always/often-taken branch located at this branch's target,
	// letting the predecessor announce both redirects in one lookup.
	NextTarget uint64

	// Taken/not-taken observation counts drive always-taken (1AT) and
	// often-taken (ZOT) classification; they saturate at 65535, which
	// preserves 1AT exactly and ZOT up to counter exhaustion.
	TakenSeen    uint16
	NotTakenSeen uint16

	Kind      isa.BranchKind
	NextValid bool

	// Built is the UOC back-propagated "built" bit (§VI).
	Built bool

	Valid bool
}

// AlwaysTaken reports the 1AT property: the branch has a taken history
// and has never been observed not-taken.
func (e *BTBEntry) AlwaysTaken() bool {
	return e.Valid && e.TakenSeen > 0 && e.NotTakenSeen == 0
}

// OftenTaken reports the ZOT property: taken at least ~90% of the time.
func (e *BTBEntry) OftenTaken() bool {
	if !e.Valid {
		return false
	}
	tot := uint32(e.TakenSeen) + uint32(e.NotTakenSeen)
	return tot >= 8 && uint32(e.TakenSeen)*10 >= tot*9
}

// btbLine is the mBTB's unit of allocation: a tag over a 128B code line
// plus eight branch slots.
type btbLine struct {
	tag      uint64
	lruTick  uint64
	valid    bool
	branches [BranchesPerLine]BTBEntry
}

// MBTB is the main BTB: a set-associative array of 128B-line entries.
type MBTB struct {
	sets int
	ways int
	// blocks maps each set to its block of ways rows in lines, claimed
	// on the set's first allocation.
	blocks satable.Blocks
	lines  []btbLine
	tick   uint64

	// victim holds the last evicted line until the caller has written
	// it back, so an eviction hands it out without allocating.
	victim btbLine

	// spill receives branches beyond the eighth in a line (§IV-A).
	spill *VBTB
}

// NewMBTB builds sets×ways line entries; spill receives dense-line
// overflow and may be shared with the VPC chains.
func NewMBTB(sets, ways int, spill *VBTB) *MBTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("branch: mBTB sets must be a power of two")
	}
	m := &MBTB{sets: sets, ways: ways, spill: spill, blocks: satable.NewBlocks(sets, ways)}
	m.lines = satable.Slab[btbLine](&m.blocks)
	return m
}

func (m *MBTB) lineOf(pc uint64) (set int, tag uint64) {
	line := pc / BTBLineBytes
	return int(line) & (m.sets - 1), line
}

// LookupLine returns the resident line for pc's 128B granule, or nil.
func (m *MBTB) LookupLine(pc uint64) *btbLine {
	set, tag := m.lineOf(pc)
	base := m.blocks.Base(set)
	if base < 0 {
		return nil
	}
	for w := 0; w < m.ways; w++ {
		l := &m.lines[base+w]
		if l.valid && l.tag == tag {
			m.tick++
			l.lruTick = m.tick
			return l
		}
	}
	return nil
}

// Lookup finds the entry for the branch at pc: first in the line's
// slots, then in the vBTB spill. The second result reports whether the
// hit came from the spill (extra access latency, §IV-A).
func (m *MBTB) Lookup(pc uint64) (*BTBEntry, bool) {
	if l := m.LookupLine(pc); l != nil {
		for i := range l.branches {
			if l.branches[i].Valid && l.branches[i].PC == pc {
				return &l.branches[i], false
			}
		}
	}
	if m.spill != nil {
		if e := m.spill.Lookup(pc); e != nil {
			return e, true
		}
	}
	return nil, false
}

// allocLine returns (possibly victimizing) the line for pc. The victim's
// contents are returned so the caller can write them back to the L2BTB;
// they stay valid until the next allocation.
func (m *MBTB) allocLine(pc uint64) (*btbLine, *btbLine) {
	set, tag := m.lineOf(pc)
	base, fresh := m.blocks.Claim(set)
	if fresh {
		m.lines = satable.Grow(m.lines, m.ways)
	}
	var victim *btbLine
	for w := 0; w < m.ways; w++ {
		l := &m.lines[base+w]
		if l.valid && l.tag == tag {
			return l, nil
		}
		if !l.valid {
			victim = l
		}
	}
	var evicted *btbLine
	if victim == nil {
		// Evict true-LRU within the set.
		victim = &m.lines[base]
		for w := 1; w < m.ways; w++ {
			if m.lines[base+w].lruTick < victim.lruTick {
				victim = &m.lines[base+w]
			}
		}
		m.victim = *victim
		evicted = &m.victim
	}
	m.tick++
	*victim = btbLine{tag: tag, valid: true, lruTick: m.tick}
	return victim, evicted
}

// Insert discovers the branch at pc, allocating its line if needed. If
// the line's eight slots are full, the branch spills to the vBTB. The
// returned entry is where the branch now lives; evicted is a victim line
// for the L2BTB, if any.
func (m *MBTB) Insert(pc uint64, kind isa.BranchKind, target uint64) (entry *BTBEntry, evicted *btbLine) {
	l, ev := m.allocLine(pc)
	for i := range l.branches {
		if l.branches[i].Valid && l.branches[i].PC == pc {
			return &l.branches[i], ev
		}
	}
	for i := range l.branches {
		if !l.branches[i].Valid {
			l.branches[i] = BTBEntry{PC: pc, Kind: kind, Target: target, Valid: true}
			return &l.branches[i], ev
		}
	}
	if m.spill != nil {
		return m.spill.Insert(pc, kind, target), ev
	}
	return nil, ev
}

// InstallLine copies a line fetched from the L2BTB into the mBTB,
// returning the installed line and any victim line for L2BTB writeback.
func (m *MBTB) InstallLine(src *btbLine) (*btbLine, *btbLine) {
	pc := src.tag * BTBLineBytes
	l, evicted := m.allocLine(pc)
	l.branches = src.branches
	return l, evicted
}

// Lines returns total line capacity (for storage accounting).
func (m *MBTB) Lines() int { return m.sets * m.ways }

// Reset invalidates every line, keeping the line slab's allocation and
// the spill pointer (the spill BTB resets separately).
func (m *MBTB) Reset() {
	m.blocks.Reset()
	m.lines = m.lines[:0]
	m.victim = btbLine{}
	m.tick = 0
}

// VBTB is the virtual-address-indexed spill BTB holding dense-line
// overflow branches and VPC virtual branches (§IV-A, Figs. 2-3). It is a
// plain set-associative structure keyed by branch PC with an extra cycle
// of access latency.
type VBTB struct {
	sets int
	ways int
	// entries/lru are flat sets*ways arrays.
	entries []BTBEntry
	lru     []uint64
	tick    uint64
}

// NewVBTB builds sets×ways branch entries.
func NewVBTB(sets, ways int) *VBTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("branch: vBTB sets must be a power of two")
	}
	return &VBTB{sets: sets, ways: ways,
		entries: make([]BTBEntry, sets*ways), lru: make([]uint64, sets*ways)}
}

func (v *VBTB) set(pc uint64) int {
	return int(rng.Mix64(pc>>2)) & (v.sets - 1)
}

// Lookup returns the entry for pc or nil.
func (v *VBTB) Lookup(pc uint64) *BTBEntry {
	base := v.set(pc) * v.ways
	for w := 0; w < v.ways; w++ {
		e := &v.entries[base+w]
		if e.Valid && e.PC == pc {
			v.tick++
			v.lru[base+w] = v.tick
			return e
		}
	}
	return nil
}

// Insert allocates (or refreshes) the entry for pc, evicting LRU.
func (v *VBTB) Insert(pc uint64, kind isa.BranchKind, target uint64) *BTBEntry {
	base := v.set(pc) * v.ways
	victim, vw := -1, uint64(^uint64(0))
	for w := 0; w < v.ways; w++ {
		e := &v.entries[base+w]
		if e.Valid && e.PC == pc {
			return e
		}
		if !e.Valid {
			victim, vw = base+w, 0
			break
		}
		if v.lru[base+w] < vw {
			victim, vw = base+w, v.lru[base+w]
		}
	}
	v.tick++
	v.entries[victim] = BTBEntry{PC: pc, Kind: kind, Target: target, Valid: true}
	v.lru[victim] = v.tick
	return &v.entries[victim]
}

// Capacity returns total entries (for storage accounting).
func (v *VBTB) Capacity() int { return v.sets * v.ways }

// Reset invalidates every entry in place, keeping the backing arrays.
func (v *VBTB) Reset() {
	clear(v.entries)
	clear(v.lru)
	v.tick = 0
}

// L2BTB is the level-2 BTB (§IV-A): a larger, denser, slower backing
// store of whole mBTB lines. Victim lines from the mBTB are written here;
// mBTB misses that hit here refill with a small bubble cost whose latency
// and bandwidth improved in M4 (§IV-D).
type L2BTB struct {
	sets int
	ways int
	// blocks maps each set to its block of ways rows in lines, claimed
	// on the set's first install.
	blocks satable.Blocks
	lines  []btbLine
	tick   uint64
}

// NewL2BTB builds sets×ways line entries.
func NewL2BTB(sets, ways int) *L2BTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("branch: L2BTB sets must be a power of two")
	}
	l := &L2BTB{sets: sets, ways: ways, blocks: satable.NewBlocks(sets, ways)}
	l.lines = satable.Slab[btbLine](&l.blocks)
	return l
}

func (l *L2BTB) setOf(tag uint64) int { return int(rng.Mix64(tag)) & (l.sets - 1) }

// Lookup returns the stored line for pc's granule, or nil.
func (l *L2BTB) Lookup(pc uint64) *btbLine {
	tag := pc / BTBLineBytes
	base := l.blocks.Base(l.setOf(tag))
	if base < 0 {
		return nil
	}
	for w := 0; w < l.ways; w++ {
		e := &l.lines[base+w]
		if e.valid && e.tag == tag {
			l.tick++
			e.lruTick = l.tick
			return e
		}
	}
	return nil
}

// Install writes a (victim) line into the L2BTB, evicting LRU.
func (l *L2BTB) Install(line *btbLine) {
	base, fresh := l.blocks.Claim(l.setOf(line.tag))
	if fresh {
		l.lines = satable.Grow(l.lines, l.ways)
	}
	victim := &l.lines[base]
	for w := 0; w < l.ways; w++ {
		e := &l.lines[base+w]
		if e.valid && e.tag == line.tag {
			victim = e
			break
		}
		if !e.valid {
			victim = e
			break
		}
		if e.lruTick < victim.lruTick {
			victim = e
		}
	}
	l.tick++
	*victim = *line
	victim.lruTick = l.tick
}

// NextLine returns the stored line for the granule after pc's, used by
// the M4+ doubled fill bandwidth (§IV-D) to stream two lines per fill.
func (l *L2BTB) NextLine(pc uint64) *btbLine {
	return l.Lookup(pc + BTBLineBytes)
}

// Lines returns total line capacity (for storage accounting).
func (l *L2BTB) Lines() int { return l.sets * l.ways }

// Reset invalidates every line, keeping the line slab's allocation.
func (l *L2BTB) Reset() {
	l.blocks.Reset()
	l.lines = l.lines[:0]
	l.tick = 0
}

// RAS is the return-address stack with standard push/pop plus wrap-around
// on overflow (§IV: "standard mechanisms to repair multiple speculative
// pushes and pops"; in this trace-driven model history repair is implicit
// because branches resolve in order). Stored return addresses pass
// through the optional TargetCipher (§V).
type RAS struct {
	stack []uint64
	top   int // index of next free slot; wraps
	depth int // valid entries, <= len(stack)

	cipher TargetCipher
	ctx    *Context
}

// NewRAS builds a stack with the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth)}
}

// SetCipher installs target encryption for stored return addresses.
func (r *RAS) SetCipher(c TargetCipher, ctx *Context) { r.cipher, r.ctx = c, ctx }

// Push records a return address (encrypted if a cipher is installed).
func (r *RAS) Push(ret uint64) {
	if r.cipher != nil {
		ret = r.cipher.Encrypt(r.ctx, ret)
	}
	r.stack[r.top] = ret
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target; ok is false on underflow.
func (r *RAS) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	v := r.stack[r.top]
	if r.cipher != nil {
		v = r.cipher.Decrypt(r.ctx, v)
	}
	return v, true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }

// Reset empties the stack in place; the installed cipher is kept.
func (r *RAS) Reset() {
	clear(r.stack)
	r.top = 0
	r.depth = 0
}

// Size returns the configured capacity.
func (r *RAS) Size() int { return len(r.stack) }
