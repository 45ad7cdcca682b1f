// Package cache models a processor-private, set-associative, write-back
// cache holding coherence blocks in MSI states. It is a passive structure:
// the simulated CPU's cache controller (internal/proc) drives all state
// transitions; this package only stores lines, evicts with LRU, and patches
// words for the fine-grained update protocol.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"amosim/internal/memsys"
	"amosim/internal/metrics"
)

// State is an MSI cache line state.
type State int

// Cache line states. Exclusive clean is folded into Modified: the directory
// grants exclusivity only on write intent, so an exclusive line is always
// treated as dirty.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Line is one resident cache block. A *Line from Lookup stays valid until
// the line itself is replaced or invalidated: lines never move.
type Line struct {
	Addr  uint64 // block-aligned address
	State State
	Words []uint64
	lru   uint64
}

// Word returns the word at addr of a line Lookup returned for addr.
func (ln *Line) Word(addr uint64) uint64 {
	return ln.Words[(addr/memsys.WordBytes)&uint64(len(ln.Words)-1)]
}

// SetWord stores val at addr in a line Lookup returned for addr; the line
// must be Modified.
func (ln *Line) SetWord(addr, val uint64) {
	if ln.State != Modified {
		panic(fmt.Sprintf("cache: SetWord %#x without Modified line (state %v)", addr, ln.State))
	}
	ln.Words[(addr/memsys.WordBytes)&uint64(len(ln.Words)-1)] = val
}

// Victim describes a block displaced by Insert.
type Victim struct {
	Addr  uint64
	State State
	Words []uint64
}

// Cache is a sets x ways block cache whose sets are allocated the first
// time Insert fills them. A synchronization run touches a handful of
// blocks per CPU, so most sets of the modeled L2 are never filled and cost
// only their 4-byte slot.
type Cache struct {
	ways       int
	blockBytes int
	blockShift uint   // log2(blockBytes)
	setMask    uint64 // sets - 1

	// slot[s] is 0 while set s was never filled. Otherwise it is k+1 for
	// the set's fill ordinal k >= 1, and its ways are chunk
	// j = bits.Len32(k+1)-2 of the slab, at line (k+1 - 2<<j) * ways.
	// Chunk j holds 2<<j sets (the last one only as many as remain), so
	// the slab grows geometrically, a filled set never moves, and the two
	// sets a barrier run typically fills share the first chunk.
	slot   []uint32
	chunks [][]Line
	filled uint32
	tick   uint64

	// recycle, when set, receives word buffers the cache drops silently
	// (replaced-in-place contents, clean victims), so callers running a
	// buffer pool can reclaim them.
	recycle func([]uint64)

	hits      uint64
	misses    uint64
	evictions uint64
}

// New builds a cache with the given geometry. sets and blockBytes must be
// powers of two.
func New(sets, ways, blockBytes int) *Cache { return &NewBank(1, sets, ways, blockBytes)[0] }

// NewBank builds n caches of one geometry. Their headers share one
// allocation and their set slots another; no line is allocated until
// Insert fills its set. A synchronization run fills one or two of a CPU's
// sets, and every line up front (24.5 KB per CPU at the Table 1 geometry)
// would be most of a 1024-CPU machine's construction cost.
func NewBank(n, sets, ways, blockBytes int) []Cache {
	if sets <= 0 || sets&(sets-1) != 0 || sets > 1<<31 {
		panic(fmt.Sprintf("cache: sets must be a power of two from 1 to 2^31, got %d", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache: ways must be positive, got %d", ways))
	}
	if blockBytes < memsys.WordBytes || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("cache: block bytes must be a power of two of at least a word, got %d", blockBytes))
	}
	bank := make([]Cache, n)
	slots := make([]uint32, n*sets)
	for i := range bank {
		bank[i] = Cache{
			ways:       ways,
			blockBytes: blockBytes,
			blockShift: uint(bits.TrailingZeros(uint(blockBytes))),
			setMask:    uint64(sets - 1),
			slot:       slots[i*sets : (i+1)*sets : (i+1)*sets],
		}
	}
	return bank
}

// SetRecycler installs fn, called with every word buffer the cache discards
// without returning it to the caller (a line replaced in place, a clean
// victim). The owning CPU wires this to its network's payload pool so block
// buffers cycle instead of garbage-collecting.
func (c *Cache) SetRecycler(fn func([]uint64)) { c.recycle = fn }

// set returns the ways of the set holding addr, or nil if that set was
// never filled.
func (c *Cache) set(addr uint64) []Line {
	m := c.slot[(addr>>c.blockShift)&c.setMask]
	if m == 0 {
		return nil
	}
	j := bits.Len32(m) - 2
	base := int(m-2<<j) * c.ways
	return c.chunks[j][base : base+c.ways : base+c.ways]
}

// fill gives the never-filled set holding addr its ways, growing the slab
// by a chunk when the last one is full, and returns them.
func (c *Cache) fill(addr uint64) []Line {
	c.filled++
	m := c.filled + 1
	c.slot[(addr>>c.blockShift)&c.setMask] = m
	if j := bits.Len32(m) - 2; j == len(c.chunks) {
		sets := min(2<<j, len(c.slot)+2-2<<j)
		c.chunks = append(c.chunks, make([]Line, sets*c.ways))
	}
	return c.set(addr)
}

// BlockBytes returns the line size.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// Lookup returns the resident line containing addr, or nil. It does not
// update LRU state; use Hit for accesses.
func (c *Cache) Lookup(addr uint64) *Line {
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			return &set[i]
		}
	}
	return nil
}

// Hit counts a hit on ln, a line Lookup returned for addr, marks it most
// recently used, and returns the word at addr.
func (c *Cache) Hit(ln *Line, addr uint64) uint64 {
	c.tick++
	ln.lru = c.tick
	c.hits++
	return ln.Word(addr)
}

// Insert installs a block with the given state and contents, returning a
// displaced dirty victim if the chosen way held a Modified block (Shared
// victims are dropped silently; the directory's sharer list stays a
// conservative superset). Inserting over the same block replaces it in
// place. words is retained by the cache; callers must not alias it. Insert
// is the only call that allocates: it fills a never-filled set.
func (c *Cache) Insert(addr uint64, st State, words []uint64) (Victim, bool) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if len(words) != c.blockBytes/memsys.WordBytes {
		panic(fmt.Sprintf("cache: Insert with %d words, want %d", len(words), c.blockBytes/memsys.WordBytes))
	}
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(block)
	if set == nil {
		set = c.fill(block)
	}
	c.tick++
	c.misses++
	// Replace in place if resident.
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			if c.recycle != nil && set[i].Words != nil {
				c.recycle(set[i].Words)
			}
			set[i].State = st
			set[i].Words = words
			set[i].lru = c.tick
			return Victim{}, false
		}
	}
	// Prefer an invalid way; otherwise evict the LRU way.
	victimIdx, oldest := -1, ^uint64(0)
	for i := range set {
		if set[i].State == Invalid {
			victimIdx = i
			break
		}
		if set[i].lru < oldest {
			oldest = set[i].lru
			victimIdx = i
		}
	}
	var v Victim
	dirty := false
	if set[victimIdx].State != Invalid {
		c.evictions++
		if set[victimIdx].State == Modified {
			v = Victim{Addr: set[victimIdx].Addr, State: Modified, Words: set[victimIdx].Words}
			dirty = true
		} else if c.recycle != nil && set[victimIdx].Words != nil {
			// Clean victim: the directory's sharer list stays a conservative
			// superset, and the buffer goes back to the pool.
			c.recycle(set[victimIdx].Words)
		}
	}
	set[victimIdx] = Line{Addr: block, State: st, Words: words, lru: c.tick}
	return v, dirty
}

// Invalidate drops the line containing addr if resident, returning its prior
// state and words (for intervention replies). Returns Invalid if absent.
func (c *Cache) Invalidate(addr uint64) (State, []uint64) {
	ln := c.Lookup(addr)
	if ln == nil {
		return Invalid, nil
	}
	st, w := ln.State, ln.Words
	*ln = Line{}
	return st, w
}

// Downgrade moves the line containing addr from Modified to Shared,
// returning its words for the writeback. Returns false if the line is not
// resident in Modified state.
func (c *Cache) Downgrade(addr uint64) ([]uint64, bool) {
	ln := c.Lookup(addr)
	if ln == nil || ln.State != Modified {
		return nil, false
	}
	ln.State = Shared
	return ln.Words, true
}

// Promote raises the line containing addr from Shared to Modified, for
// upgrade grants. Returns false if the line is absent (invalidated while the
// upgrade was in flight).
func (c *Cache) Promote(addr uint64) bool {
	ln := c.Lookup(addr)
	if ln == nil {
		return false
	}
	ln.State = Modified
	return true
}

// PatchWord applies a fine-grained word update to a resident line, returning
// false if the block is not cached (the update is then simply dropped; the
// home memory already holds the new value).
func (c *Cache) PatchWord(addr uint64, val uint64) bool {
	ln := c.Lookup(addr)
	if ln == nil {
		return false
	}
	ln.Words[memsys.WordIndex(addr, c.blockBytes)] = val
	return true
}

// ResidentBlocks returns the block addresses of every valid line, in
// ascending order (for coherence checking and introspection).
func (c *Cache) ResidentBlocks() []uint64 {
	var out []uint64
	for _, chunk := range c.chunks {
		for i := range chunk {
			if chunk[i].State != Invalid {
				out = append(out, chunk[i].Addr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the cumulative hit/miss/eviction counters (hits counted by
// Hit, misses by Insert).
func (c *Cache) Stats() metrics.CacheStats {
	return metrics.CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
