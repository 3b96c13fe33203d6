package branch

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"exysim/internal/isa"
	"exysim/internal/rng"
)

// flatMBTB and flatL2BTB are the reference layout the block-allocated
// BTBs must reproduce: every set's ways preallocated in one flat
// sets×ways array, cleared wholesale by Reset. Their methods are the
// flat-array versions of MBTB's and L2BTB's, kept verbatim apart from
// the indexing.
type flatMBTB struct {
	sets, ways int
	lines      []btbLine
	tick       uint64
	spill      *VBTB
}

func (m *flatMBTB) Reset() {
	clear(m.lines)
	m.tick = 0
}

func (m *flatMBTB) LookupLine(pc uint64) *btbLine {
	line := pc / BTBLineBytes
	base := (int(line) & (m.sets - 1)) * m.ways
	for w := 0; w < m.ways; w++ {
		l := &m.lines[base+w]
		if l.valid && l.tag == line {
			m.tick++
			l.lruTick = m.tick
			return l
		}
	}
	return nil
}

func (m *flatMBTB) Lookup(pc uint64) (*BTBEntry, bool) {
	if l := m.LookupLine(pc); l != nil {
		for i := range l.branches {
			if l.branches[i].Valid && l.branches[i].PC == pc {
				return &l.branches[i], false
			}
		}
	}
	if e := m.spill.Lookup(pc); e != nil {
		return e, true
	}
	return nil, false
}

func (m *flatMBTB) allocLine(pc uint64) (*btbLine, *btbLine) {
	tag := pc / BTBLineBytes
	base := (int(tag) & (m.sets - 1)) * m.ways
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
		victim = &m.lines[base]
		for w := 1; w < m.ways; w++ {
			if m.lines[base+w].lruTick < victim.lruTick {
				victim = &m.lines[base+w]
			}
		}
		ev := *victim
		evicted = &ev
	}
	m.tick++
	*victim = btbLine{tag: tag, valid: true, lruTick: m.tick}
	return victim, evicted
}

func (m *flatMBTB) Insert(pc uint64, kind isa.BranchKind, target uint64) (*BTBEntry, *btbLine) {
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
	return m.spill.Insert(pc, kind, target), ev
}

func (m *flatMBTB) InstallLine(src *btbLine) (*btbLine, *btbLine) {
	l, evicted := m.allocLine(src.tag * BTBLineBytes)
	l.branches = src.branches
	return l, evicted
}

type flatL2BTB struct {
	sets, ways int
	lines      []btbLine
	tick       uint64
}

func (l *flatL2BTB) Reset() {
	clear(l.lines)
	l.tick = 0
}

func (l *flatL2BTB) setOf(tag uint64) int { return int(rng.Mix64(tag)) & (l.sets - 1) }

func (l *flatL2BTB) Lookup(pc uint64) *btbLine {
	tag := pc / BTBLineBytes
	base := l.setOf(tag) * l.ways
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

func (l *flatL2BTB) Install(line *btbLine) {
	base := l.setOf(line.tag) * l.ways
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

func (l *flatL2BTB) NextLine(pc uint64) *btbLine { return l.Lookup(pc + BTBLineBytes) }

// sameRows fails unless the block-allocated rows (blocks of lines) hold
// exactly the reference's flat rows: a claimed set's block equals the
// reference set row for row, and an unclaimed set is all-zero there.
func sameRows(t *testing.T, what string, sets, ways int, base func(set int) int, lines, ref []btbLine) {
	t.Helper()
	for set := 0; set < sets; set++ {
		b := base(set)
		for w := 0; w < ways; w++ {
			var got btbLine
			if b >= 0 {
				got = lines[b+w]
			}
			if want := ref[set*ways+w]; got != want {
				t.Fatalf("%s set %d way %d (base %d): %+v, reference %+v", what, set, w, b, got, want)
			}
		}
	}
}

// sameLine compares two possibly-nil line results by content.
func sameLine(got, want *btbLine) bool {
	return (got == nil) == (want == nil) && (got == nil || *got == *want)
}

// sameEntry compares two possibly-nil entry results by content.
func sameEntry(got, want *BTBEntry) bool {
	return (got == nil) == (want == nil) && (got == nil || *got == *want)
}

// TestBlocksMatchFlatReference drives random operation sequences, with
// Resets between them, through the block-allocated mBTB and L2BTB and
// the flat references, and requires identical hits, entries, victims
// and their contents, recency ticks and rows after every sequence —
// including the mBTB's last-invalid-way choice and blocks that a Reset
// hands to a new set while they still hold another set's stale rows.
func TestBlocksMatchFlatReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{{16, 4}, {64, 9}, {8, 1}}
	for _, g := range geoms {
		geom := fmt.Sprintf("%dx%d", g.sets, g.ways)
		rnd := rand.New(rand.NewSource(int64(g.sets*16 + g.ways)))
		// randLine picks a 128B line among 3×ways tags of a random subset
		// of the sets, so sets conflict and evict.
		var hot, setBase int
		randLine := func(sets int) uint64 {
			set := (setBase + rnd.Intn(hot)) & (sets - 1)
			return uint64(rnd.Intn(3*g.ways)*sets + set)
		}
		// randPC picks one of twelve branch slots of a line, so a line
		// can overflow its eight slots into the spill.
		randPC := func(line uint64) uint64 { return line*BTBLineBytes + uint64(rnd.Intn(12))*4 }
		randBranches := func(line uint64) (b [BranchesPerLine]BTBEntry) {
			for i := range b {
				if rnd.Intn(2) == 0 {
					b[i] = BTBEntry{PC: randPC(line), Target: rnd.Uint64(), TakenSeen: uint16(rnd.Intn(9)),
						Kind: isa.BranchKind(rnd.Intn(4)), Valid: true}
				}
			}
			return b
		}

		t.Run("mBTB/"+geom, func(t *testing.T) {
			m := NewMBTB(g.sets, g.ways, NewVBTB(16, 4))
			r := &flatMBTB{sets: g.sets, ways: g.ways, lines: make([]btbLine, g.sets*g.ways), spill: NewVBTB(16, 4)}
			for seq := 0; seq < 8; seq++ {
				m.Reset()
				m.spill.Reset()
				r.Reset()
				r.spill.Reset()
				hot, setBase = 1+rnd.Intn(g.sets), rnd.Intn(g.sets)
				for op := 0; op < 3000; op++ {
					line := randLine(g.sets)
					switch rnd.Intn(3) {
					case 0:
						pc := randPC(line)
						got, gs := m.Lookup(pc)
						want, ws := r.Lookup(pc)
						if !sameEntry(got, want) || gs != ws {
							t.Fatalf("seq %d op %d Lookup(%#x) = %+v %v, reference %+v %v", seq, op, pc, got, gs, want, ws)
						}
						if got != nil {
							got.TakenSeen++
							want.TakenSeen++
						}
					case 1:
						pc, target := randPC(line), rnd.Uint64()
						got, gev := m.Insert(pc, isa.BranchCond, target)
						want, wev := r.Insert(pc, isa.BranchCond, target)
						if !sameEntry(got, want) || !sameLine(gev, wev) {
							t.Fatalf("seq %d op %d Insert(%#x) = %+v victim %+v, reference %+v victim %+v",
								seq, op, pc, got, gev, want, wev)
						}
					case 2:
						src := btbLine{tag: line, valid: true, lruTick: rnd.Uint64(), branches: randBranches(line)}
						got, gev := m.InstallLine(&src)
						want, wev := r.InstallLine(&src)
						if *got != *want || !sameLine(gev, wev) {
							t.Fatalf("seq %d op %d InstallLine(%#x) = %+v victim %+v, reference %+v victim %+v",
								seq, op, line, got, gev, want, wev)
						}
					}
				}
				if m.tick != r.tick {
					t.Fatalf("seq %d: tick %d, reference %d", seq, m.tick, r.tick)
				}
				sameRows(t, "mBTB", g.sets, g.ways, m.blocks.Base, m.lines, r.lines)
				if !reflect.DeepEqual(m.spill, r.spill) {
					t.Fatalf("seq %d: spill BTBs differ", seq)
				}
			}
		})

		t.Run("L2BTB/"+geom, func(t *testing.T) {
			l := NewL2BTB(g.sets, g.ways)
			r := &flatL2BTB{sets: g.sets, ways: g.ways, lines: make([]btbLine, g.sets*g.ways)}
			for seq := 0; seq < 8; seq++ {
				l.Reset()
				r.Reset()
				// The L2BTB hashes its set index, so the hot subset is
				// a subset of line tags instead of sets.
				hot, setBase = 1+rnd.Intn(g.sets), rnd.Intn(g.sets)
				for op := 0; op < 3000; op++ {
					line := randLine(g.sets)
					switch rnd.Intn(3) {
					case 0:
						src := btbLine{tag: line, valid: true, lruTick: rnd.Uint64(), branches: randBranches(line)}
						l.Install(&src)
						r.Install(&src)
					case 1:
						pc := randPC(line)
						if got, want := l.Lookup(pc), r.Lookup(pc); !sameLine(got, want) {
							t.Fatalf("seq %d op %d Lookup(%#x) = %+v, reference %+v", seq, op, pc, got, want)
						}
					case 2:
						pc := randPC(line)
						if got, want := l.NextLine(pc), r.NextLine(pc); !sameLine(got, want) {
							t.Fatalf("seq %d op %d NextLine(%#x) = %+v, reference %+v", seq, op, pc, got, want)
						}
					}
				}
				if l.tick != r.tick {
					t.Fatalf("seq %d: tick %d, reference %d", seq, l.tick, r.tick)
				}
				sameRows(t, "L2BTB", g.sets, g.ways, l.blocks.Base, l.lines, r.lines)
			}
		})
	}
}
