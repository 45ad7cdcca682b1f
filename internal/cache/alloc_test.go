package cache

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestCacheHitSteadyStateZeroAlloc pins the CPU model's hit paths, and every
// call other than Insert, at zero allocations: a load hit (Lookup, Hit), a
// store or atomic hit (Lookup, Word, SetWord), word updates, upgrades,
// downgrades and invalidations, on filled and never-filled sets alike.
func TestCacheHitSteadyStateZeroAlloc(t *testing.T) {
	c := New(128, 4, bb)
	c.Insert(0x1000, Modified, words(1))
	c.Insert(0x2000, Shared, words(2))
	filled := c.filled
	const absent = 0x40000 + 3*bb // a set no Insert filled
	allocs := testing.AllocsPerRun(1000, func() {
		if ln := c.Lookup(0x1008); ln != nil {
			c.Hit(ln, 0x1008)
		}
		if ln := c.Lookup(0x1010); ln != nil && ln.State == Modified {
			ln.SetWord(0x1010, ln.Word(0x1010)+1)
		}
		c.PatchWord(0x2008, 7)
		c.Downgrade(0x1000)
		c.Promote(0x1000)
		c.Lookup(absent)
		c.PatchWord(absent, 1)
		c.Downgrade(absent)
		c.Promote(absent)
		c.Invalidate(absent)
	})
	if allocs != 0 {
		t.Fatalf("hit path: %v allocs/op, want 0", allocs)
	}
	if c.filled != filled {
		t.Fatalf("%d sets filled after the hit loop, want %d", c.filled, filled)
	}
	c.ResidentBlocks()
	if c.filled != filled {
		t.Fatalf("ResidentBlocks filled a set")
	}
}

// TestNewBankAllocatesNoLines pins the construction cost of a 1024-CPU
// machine's caches at the Table 1 geometry: the bank's headers plus one
// 4-byte slot per set, in two allocations, and no Line at all.
func TestNewBankAllocatesNoLines(t *testing.T) {
	const n, sets, ways = 1024, 128, 4
	// A small bank, so the count is not blurred by what the runtime
	// allocates for the garbage collections a large one sets off.
	if allocs := testing.AllocsPerRun(100, func() { NewBank(16, sets, ways, bb) }); allocs != 2 {
		t.Fatalf("NewBank: %v allocs, want 2 (headers, slots)", allocs)
	}
	// TotalAlloc also counts whatever the runtime allocates meanwhile, so
	// take the least of a few tries and allow the runtime one 8 KiB page.
	// A single set's lines for every CPU would be 192 KiB more.
	want := uint64(n)*uint64(unsafe.Sizeof(Cache{})) + n*sets*4 + 8<<10
	var got uint64
	var bank []Cache
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		bank = NewBank(n, sets, ways, bb)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; try == 0 || d < got {
			got = d
		}
	}
	if got > want {
		t.Fatalf("NewBank(%d, %d, %d, %d) allocated %d bytes, want at most %d (headers + 4 bytes per set + 8 KiB)", n, sets, ways, bb, got, want)
	}
	for i := range bank {
		if bank[i].chunks != nil {
			t.Fatalf("cache %d has lines before any Insert", i)
		}
	}
}
