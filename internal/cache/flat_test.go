package cache

import (
	"fmt"
	"sort"

	"amosim/internal/memsys"
	"amosim/internal/metrics"
)

// flatCache is the eager cache this package shipped before sets were
// allocated lazily: every way of every set lives in one flat array built
// up front. It is kept, behaviour for behaviour, as the oracle the lazy
// Cache is checked against (TestLazyCacheMatchesFlatOracle).
type flatCache struct {
	sets       int
	ways       int
	blockBytes int
	lines      []Line // flat [set*ways+way] backing
	tick       uint64
	recycle    func([]uint64)

	hits      uint64
	misses    uint64
	evictions uint64
}

func newFlat(sets, ways, blockBytes int) *flatCache {
	return &flatCache{sets: sets, ways: ways, blockBytes: blockBytes, lines: make([]Line, sets*ways)}
}

func (c *flatCache) setOf(block uint64) int {
	return int((block / uint64(c.blockBytes)) % uint64(c.sets))
}

func (c *flatCache) set(i int) []Line {
	return c.lines[i*c.ways : (i+1)*c.ways]
}

func (c *flatCache) Lookup(addr uint64) *Line {
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(c.setOf(block))
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			return &set[i]
		}
	}
	return nil
}

func (c *flatCache) Touch(addr uint64) {
	if ln := c.Lookup(addr); ln != nil {
		c.tick++
		ln.lru = c.tick
		c.hits++
	}
}

func (c *flatCache) Insert(addr uint64, st State, words []uint64) (Victim, bool) {
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(c.setOf(block))
	c.tick++
	c.misses++
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
			c.recycle(set[victimIdx].Words)
		}
	}
	set[victimIdx] = Line{Addr: block, State: st, Words: words, lru: c.tick}
	return v, dirty
}

func (c *flatCache) Invalidate(addr uint64) (State, []uint64) {
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(c.setOf(block))
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			st, w := set[i].State, set[i].Words
			set[i] = Line{}
			return st, w
		}
	}
	return Invalid, nil
}

func (c *flatCache) Downgrade(addr uint64) ([]uint64, bool) {
	ln := c.Lookup(addr)
	if ln == nil || ln.State != Modified {
		return nil, false
	}
	ln.State = Shared
	return ln.Words, true
}

func (c *flatCache) Promote(addr uint64) bool {
	ln := c.Lookup(addr)
	if ln == nil {
		return false
	}
	ln.State = Modified
	return true
}

func (c *flatCache) PatchWord(addr uint64, val uint64) bool {
	ln := c.Lookup(addr)
	if ln == nil {
		return false
	}
	ln.Words[memsys.WordIndex(addr, c.blockBytes)] = val
	return true
}

func (c *flatCache) ReadWord(addr uint64) (uint64, bool) {
	ln := c.Lookup(addr)
	if ln == nil {
		return 0, false
	}
	return ln.Words[memsys.WordIndex(addr, c.blockBytes)], true
}

func (c *flatCache) WriteWord(addr uint64, val uint64) {
	ln := c.Lookup(addr)
	if ln == nil || ln.State != Modified {
		panic(fmt.Sprintf("cache: WriteWord %#x without Modified line", addr))
	}
	ln.Words[memsys.WordIndex(addr, c.blockBytes)] = val
}

func (c *flatCache) ResidentBlocks() []uint64 {
	var out []uint64
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			out = append(out, c.lines[i].Addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *flatCache) Stats() metrics.CacheStats {
	return metrics.CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
