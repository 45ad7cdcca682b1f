package cache

import (
	"fmt"
	"slices"
	"testing"

	"amosim/internal/memsys"
)

// splitmix is a tiny deterministic generator for the differential driver.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// TestLazyCacheMatchesFlatOracle drives the lazily allocated Cache and the
// eager flatCache with the same seeded random sequences of every operation
// the CPU model issues, and after each step compares what the two return,
// the buffers each hands its recycler (in order), Stats, ResidentBlocks and
// every resident line. It also checks that only Insert fills sets: the
// number of filled sets must equal the number of distinct sets an Insert
// has landed in.
func TestLazyCacheMatchesFlatOracle(t *testing.T) {
	geometries := []struct{ sets, ways, block int }{
		{1, 1, 128},
		{1, 4, 64},
		{4, 2, 128},
		{16, 4, 128},
		{128, 4, 128},
	}
	for _, g := range geometries {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%dx%d/seed%d", g.sets, g.ways, g.block, seed), func(t *testing.T) {
				diffRun(t, g.sets, g.ways, g.block, seed, 4000)
			})
		}
	}
}

func diffRun(t *testing.T, sets, ways, block int, seed uint64, steps int) {
	t.Helper()
	lazy := New(sets, ways, block)
	flat := newFlat(sets, ways, block)
	var lazyRec, flatRec [][]uint64
	lazy.SetRecycler(func(w []uint64) { lazyRec = append(lazyRec, slices.Clone(w)) })
	flat.recycle = func(w []uint64) { flatRec = append(flatRec, slices.Clone(w)) }

	// A pool of twice as many blocks as the cache holds, spread over four
	// nodes, so sets collide, fill and evict.
	rng := splitmix(seed)
	pool := make([]uint64, 2*sets*ways)
	for i := range pool {
		pool[i] = memsys.NodeBase(rng.intn(4)) + uint64(rng.intn(4*sets*ways))*uint64(block)
	}
	nwords := block / memsys.WordBytes
	addr := func() uint64 {
		return pool[rng.intn(len(pool))] + uint64(rng.intn(nwords)*memsys.WordBytes)
	}
	filledSets := map[uint64]bool{}
	serial := uint64(0)

	for step := 0; step < steps; step++ {
		a := addr()
		var op string
		switch rng.intn(9) {
		case 0, 1:
			st := Shared
			if rng.intn(2) == 0 {
				st = Modified
			}
			op = fmt.Sprintf("Insert(%#x, %v)", a, st)
			serial++
			wl, wf := make([]uint64, nwords), make([]uint64, nwords)
			for i := range wl {
				wl[i], wf[i] = serial<<8|uint64(i), serial<<8|uint64(i)
			}
			vl, dl := lazy.Insert(a, st, wl)
			vf, df := flat.Insert(a, st, wf)
			if dl != df || vl.Addr != vf.Addr || vl.State != vf.State || !slices.Equal(vl.Words, vf.Words) {
				t.Fatalf("step %d %s: victim %+v, %v; oracle %+v, %v", step, op, vl, dl, vf, df)
			}
			filledSets[(a/uint64(block))%uint64(sets)] = true
		case 2:
			op = fmt.Sprintf("Lookup(%#x)", a)
			if (lazy.Lookup(a) == nil) != (flat.Lookup(a) == nil) {
				t.Fatalf("step %d %s: residency differs", step, op)
			}
		case 3:
			op = fmt.Sprintf("Invalidate(%#x)", a)
			sl, wl := lazy.Invalidate(a)
			sf, wf := flat.Invalidate(a)
			if sl != sf || !slices.Equal(wl, wf) {
				t.Fatalf("step %d %s = %v, %v; oracle %v, %v", step, op, sl, wl, sf, wf)
			}
		case 4:
			op = fmt.Sprintf("Downgrade(%#x)", a)
			wl, okl := lazy.Downgrade(a)
			wf, okf := flat.Downgrade(a)
			if okl != okf || !slices.Equal(wl, wf) {
				t.Fatalf("step %d %s = %v, %v; oracle %v, %v", step, op, wl, okl, wf, okf)
			}
		case 5:
			op = fmt.Sprintf("Promote(%#x)", a)
			if l, f := lazy.Promote(a), flat.Promote(a); l != f {
				t.Fatalf("step %d %s = %v; oracle %v", step, op, l, f)
			}
		case 6:
			val := rng.next()
			op = fmt.Sprintf("PatchWord(%#x, %#x)", a, val)
			if l, f := lazy.PatchWord(a, val), flat.PatchWord(a, val); l != f {
				t.Fatalf("step %d %s = %v; oracle %v", step, op, l, f)
			}
		case 7:
			// The load hit path: Lookup, then Hit on the same line.
			op = fmt.Sprintf("Hit(%#x)", a)
			var vl, vf uint64
			ln := lazy.Lookup(a)
			if ln != nil {
				vl = lazy.Hit(ln, a)
			}
			vf, okf := flat.ReadWord(a)
			flat.Touch(a)
			if (ln != nil) != okf || vl != vf {
				t.Fatalf("step %d %s = %#x, %v; oracle %#x, %v", step, op, vl, ln != nil, vf, okf)
			}
		case 8:
			// The store / atomic hit path on a Modified line.
			val := rng.next()
			op = fmt.Sprintf("SetWord(%#x, %#x)", a, val)
			ln := lazy.Lookup(a)
			lf := flat.Lookup(a)
			if (ln != nil && ln.State == Modified) != (lf != nil && lf.State == Modified) {
				t.Fatalf("step %d %s: Modified residency differs", step, op)
			}
			if ln != nil && ln.State == Modified {
				if old, oldf := ln.Word(a), lf.Words[memsys.WordIndex(a, block)]; old != oldf {
					t.Fatalf("step %d %s: word %#x; oracle %#x", step, op, old, oldf)
				}
				ln.SetWord(a, val)
				flat.WriteWord(a, val)
			}
		}

		if len(lazyRec) != len(flatRec) {
			t.Fatalf("step %d %s: %d recycled buffers; oracle %d", step, op, len(lazyRec), len(flatRec))
		}
		for i := range lazyRec {
			if !slices.Equal(lazyRec[i], flatRec[i]) {
				t.Fatalf("step %d %s: recycled buffer %d = %v; oracle %v", step, op, i, lazyRec[i], flatRec[i])
			}
		}
		if l, f := lazy.Stats(), flat.Stats(); l != f {
			t.Fatalf("step %d %s: Stats %+v; oracle %+v", step, op, l, f)
		}
		rl, rf := lazy.ResidentBlocks(), flat.ResidentBlocks()
		if !slices.Equal(rl, rf) {
			t.Fatalf("step %d %s: ResidentBlocks %#x; oracle %#x", step, op, rl, rf)
		}
		for _, b := range rl {
			ll, lf := lazy.Lookup(b), flat.Lookup(b)
			if ll.Addr != lf.Addr || ll.State != lf.State || ll.lru != lf.lru || !slices.Equal(ll.Words, lf.Words) {
				t.Fatalf("step %d %s: line %#x = %+v; oracle %+v", step, op, b, *ll, *lf)
			}
		}
		if int(lazy.filled) != len(filledSets) {
			t.Fatalf("step %d %s: %d sets filled, but Insert landed in %d", step, op, lazy.filled, len(filledSets))
		}
	}
}
