package satable

// Blocks is the set index of a sets×ways table whose rows are allocated
// one set at a time, on the set's first fill, instead of all at once.
// The table keeps its rows in slabs (one per row array) whose capacity
// is reserved for every set at construction and whose length is the
// rows of the sets claimed so far, in claim order. A set's ways are one
// contiguous block of such rows.
//
// A table therefore costs what it holds: Reset clears the index and
// truncates the slabs, a lookup in an untouched set misses without a
// scan, a snapshot of the table copies the index plus the claimed rows
// only, and the table never writes pages of never-claimed capacity, so
// a long-lived table keeps resident only what it has claimed. Because the slabs never grow past their
// reserved capacity, their backing arrays never move and a pointer to a
// row stays valid for the table's lifetime.
type Blocks struct {
	ways int
	// first holds, per set, 1 + the first row of the set's block; 0
	// means the set is untouched since Reset.
	first []int32
	// rows is the slab length in use: claimed blocks × ways.
	rows int
}

// NewBlocks builds the index of a sets×ways table with no set claimed.
func NewBlocks(sets, ways int) Blocks {
	if sets <= 0 || ways <= 0 {
		panic("satable: blocks need positive sets and ways")
	}
	if int64(sets)*int64(ways) >= 1<<31 {
		panic("satable: too many rows for an int32 block index")
	}
	return Blocks{ways: ways, first: make([]int32, sets)}
}

// Slab allocates a row slab for b's table: no length, capacity for
// every set.
func Slab[T any](b *Blocks) []T { return make([]T, 0, len(b.first)*b.ways) }

// Base returns the first row of set's block, or -1 when the set is
// untouched since Reset.
func (b *Blocks) Base(set int) int { return int(b.first[set]) - 1 }

// Claim returns the first row of set's block, claiming the next block
// when the set is untouched. fresh reports a claim: the caller must
// then extend each of its row slabs by one block with Grow, which makes
// the block's rows the zero value — the state of an unfilled set.
func (b *Blocks) Claim(set int) (base int, fresh bool) {
	if k := b.first[set]; k != 0 {
		return int(k) - 1, false
	}
	base = b.rows
	b.rows += b.ways
	b.first[set] = int32(base + 1)
	return base, true
}

// Reset unclaims every set. The caller truncates its row slabs to zero
// length; their stale rows are cleared again when reclaimed.
func (b *Blocks) Reset() {
	clear(b.first)
	b.rows = 0
}

// Grow extends slab by one block of ways zeroed rows. The slab's
// capacity was reserved by Slab, so its backing array never moves.
func Grow[T any](slab []T, ways int) []T {
	n := len(slab)
	slab = slab[:n+ways]
	clear(slab[n:])
	return slab
}
