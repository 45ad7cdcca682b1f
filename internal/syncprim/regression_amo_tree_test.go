package syncprim

import (
	"fmt"
	"testing"

	"amosim/internal/cache"

	"amosim/internal/proc"
	"amosim/internal/sim"
)

// TestTreeBarrierAMODebug is the regression for the lost-wake deadlock
// where an AMU recall on a *read* request cancelled a queued fine-put
// without invalidating sharers, stranding spinners. On failure it dumps
// the relevant directory/cache state.
func TestTreeBarrierAMODebug(t *testing.T) {
	const procs = 16
	m := newMachine(t, procs)
	tb := NewTreeBarrier(m, AMO, procs, 2)
	stage := make([]string, procs)
	mark := func(c *proc.CPU, s string) { stage[c.ID()] = s }
	m.OnAllCPUs(func(c *proc.CPU) {
		for e := 0; e < 3; e++ {
			c.Think(uint64(c.ID()*13 + e*7))
			mark(c, "entering")
			tb.Wait(c)
			mark(c, "passed")
		}
		mark(c, "done")
	})
	_, err := m.Run()
	if err != nil {
		if _, ok := err.(*sim.ErrDeadlock); ok {
			for id, s := range stage {
				t.Logf("cpu%d stage=%s", id, s)
			}
			g0 := tb.groups[0]
			t.Logf("root count mem=%d amuHolds=%v sharers=%v", m.Mem.ReadWord(tb.root), m.Dirs[0].AMUHolds(tb.root), m.Dirs[0].Sharers(tb.root))
			t.Logf("g0 count mem=%d flag mem=%d", m.Mem.ReadWord(g0.count), m.Mem.ReadWord(g0.flag))
			for id := 0; id < 4; id++ {
				t.Logf("cpu%d cached g0.flag=%s root=%s", id, cachedWord(m.CPUs[id].Cache(), g0.flag), cachedWord(m.CPUs[id].Cache(), tb.root))
			}
		}
		t.Fatalf("Run: %v", err)
	}
}

// cachedWord renders the word at addr in c, or "-" when its block is not
// resident.
func cachedWord(c *cache.Cache, addr uint64) string {
	if ln := c.Lookup(addr); ln != nil {
		return fmt.Sprint(ln.Word(addr))
	}
	return "-"
}
