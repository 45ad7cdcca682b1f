package cache

import (
	"testing"
	"testing/quick"
)

const bb = 128 // block bytes

func words(v uint64) []uint64 {
	w := make([]uint64, bb/8)
	for i := range w {
		w[i] = v
	}
	return w
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4, bb) },
		func() { New(3, 4, bb) }, // not power of two
		func() { New(4, 0, bb) },
		func() { New(4, 2, 96) }, // block not a power of two
		func() { New(4, 2, 4) },  // block smaller than a word
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInsertLookup(t *testing.T) {
	c := New(4, 2, bb)
	if c.Lookup(0x1000) != nil {
		t.Fatal("lookup in empty cache")
	}
	c.Insert(0x1000, Shared, words(7))
	ln := c.Lookup(0x1040) // same block, different word
	if ln == nil || ln.State != Shared {
		t.Fatalf("line = %+v", ln)
	}
	if v := ln.Word(0x1008); v != 7 {
		t.Fatalf("Word = %d", v)
	}
}

func TestInsertReplacesInPlace(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Shared, words(1))
	v, dirty := c.Insert(0x1000, Modified, words(2))
	if dirty {
		t.Fatalf("in-place replace produced victim %+v", v)
	}
	if got := c.Lookup(0x1000).Word(0x1000); got != 2 {
		t.Fatalf("word = %d, want 2", got)
	}
}

func TestLRUEvictionPrefersInvalidThenOldest(t *testing.T) {
	c := New(1, 2, bb) // one set, two ways
	c.Insert(0x0000, Modified, words(1))
	c.Insert(0x1000, Shared, words(2)) // fills second way, no eviction
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
	c.Hit(c.Lookup(0x0000), 0x0000) // make first block MRU
	v, dirty := c.Insert(0x2000, Shared, words(3))
	if dirty {
		t.Fatalf("shared victim reported dirty: %+v", v)
	}
	if c.Lookup(0x1000) != nil {
		t.Fatal("LRU block 0x1000 survived")
	}
	if c.Lookup(0x0000) == nil {
		t.Fatal("MRU block 0x0000 evicted")
	}
}

func TestDirtyVictimReturned(t *testing.T) {
	c := New(1, 1, bb)
	c.Insert(0x0000, Modified, words(9))
	v, dirty := c.Insert(0x1000, Shared, words(1))
	if !dirty {
		t.Fatal("dirty victim not reported")
	}
	if v.Addr != 0 || v.Words[0] != 9 || v.State != Modified {
		t.Fatalf("victim = %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Modified, words(5))
	st, w := c.Invalidate(0x1008)
	if st != Modified || w[0] != 5 {
		t.Fatalf("Invalidate = %v, %v", st, w)
	}
	if c.Lookup(0x1000) != nil {
		t.Fatal("line survived invalidation")
	}
	st, _ = c.Invalidate(0x1000)
	if st != Invalid {
		t.Fatalf("second Invalidate = %v, want Invalid", st)
	}
}

func TestDowngrade(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Modified, words(3))
	w, ok := c.Downgrade(0x1000)
	if !ok || w[0] != 3 {
		t.Fatalf("Downgrade = %v, %v", w, ok)
	}
	if c.Lookup(0x1000).State != Shared {
		t.Fatal("state not Shared after downgrade")
	}
	if _, ok := c.Downgrade(0x1000); ok {
		t.Fatal("downgrade of Shared line succeeded")
	}
	if _, ok := c.Downgrade(0x9000); ok {
		t.Fatal("downgrade of absent line succeeded")
	}
}

func TestPatchWord(t *testing.T) {
	c := New(4, 2, bb)
	if c.PatchWord(0x1000, 1) {
		t.Fatal("patch of absent line succeeded")
	}
	c.Insert(0x1000, Shared, words(0))
	if !c.PatchWord(0x1010, 42) {
		t.Fatal("patch failed")
	}
	ln := c.Lookup(0x1000)
	if v := ln.Word(0x1010); v != 42 {
		t.Fatalf("word = %d, want 42", v)
	}
	if v := ln.Word(0x1008); v != 0 {
		t.Fatalf("neighbor word changed to %d", v)
	}
}

func TestSetWordRequiresModified(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Shared, words(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Lookup(0x1000).SetWord(0x1000, 1)
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}

// Property: a cache never holds two lines for the same block.
func TestNoDuplicateBlocksProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(2, 2, bb)
		for _, op := range ops {
			block := uint64(op%8) * bb
			switch (op / 8) % 3 {
			case 0:
				c.Insert(block, Shared, words(uint64(op)))
			case 1:
				c.Insert(block, Modified, words(uint64(op)))
			case 2:
				c.Invalidate(block)
			}
			// Count residences of each block.
			seen := map[uint64]int{}
			for b := uint64(0); b < 8; b++ {
				if c.Lookup(b*bb) != nil {
					seen[b*bb]++
				}
			}
			for _, n := range seen {
				if n > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacity is never exceeded and dirty data is never silently
// dropped — every Modified insert either stays resident or is returned as a
// dirty victim on later eviction.
func TestDirtyNeverSilentlyDroppedProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		c := New(1, 2, bb)
		liveDirty := map[uint64]bool{}
		for i, b := range blocks {
			block := uint64(b%6) * bb
			v, dirty := c.Insert(block, Modified, words(uint64(i)))
			if dirty {
				if !liveDirty[v.Addr] {
					return false // victim we didn't think was dirty-resident
				}
				delete(liveDirty, v.Addr)
			}
			liveDirty[block] = true
			// Anything we believe dirty must be resident.
			for addr := range liveDirty {
				ln := c.Lookup(addr)
				if ln == nil || ln.State != Modified {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndAccessors(t *testing.T) {
	c := New(4, 2, bb)
	if c.BlockBytes() != bb {
		t.Fatalf("BlockBytes = %d", c.BlockBytes())
	}
	c.Insert(0x1000, Shared, words(1)) // miss
	c.Hit(c.Lookup(0x1000), 0x1000)    // hit
	if c.Lookup(0x9999000) != nil {    // absent: no hit counted
		t.Fatal("absent block resident")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 0 evictions", st)
	}
}

func TestResidentBlocksSorted(t *testing.T) {
	c := New(4, 2, bb)
	// Three blocks in three different sets (set = block/128 mod 4).
	c.Insert(0x1100, Shared, words(1))
	c.Insert(0x1000, Modified, words(2))
	c.Insert(0x1080, Shared, words(3))
	got := c.ResidentBlocks()
	want := []uint64{0x1000, 0x1080, 0x1100}
	if len(got) != 3 {
		t.Fatalf("blocks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", got, want)
		}
	}
	if len(New(1, 1, bb).ResidentBlocks()) != 0 {
		t.Fatal("empty cache has residents")
	}
}
