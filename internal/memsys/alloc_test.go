package memsys

import "testing"

// TestMemoryAccessSteadyStateZeroAlloc: once a bank has grown over the
// allocated words, word and block reads and writes allocate nothing.
func TestMemoryAccessSteadyStateZeroAlloc(t *testing.T) {
	m := New(4, 128, 60)
	var addrs []uint64
	for n := 0; n < 4; n++ {
		for i := 0; i < 8; i++ {
			a := m.AllocWord(n)
			m.WriteWord(a, 1) // grow the bank over it
			addrs = append(addrs, a)
		}
	}
	block := make([]uint64, 16)
	access := func() {
		for i, a := range addrs {
			m.WriteWord(a, m.ReadWord(a)+uint64(i))
			m.ReadBlockInto(a, block)
			block[0]++
			m.WriteBlock(a, block)
			m.PeekBlock(a, block)
		}
	}
	access()
	if allocs := testing.AllocsPerRun(100, access); allocs != 0 {
		t.Fatalf("memory access steady state allocates %.1f/op, want 0", allocs)
	}
}
