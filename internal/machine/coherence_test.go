package machine

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"amosim/internal/proc"
)

// TestCheckCoherenceHasNoObserverEffect: the invariant check reads memory
// and directory records without counting DRAM reads or creating records,
// so a quiescent machine's metrics and directory contents are the same
// before and after it.
func TestCheckCoherenceHasNoObserverEffect(t *testing.T) {
	m := newMachine(t, 8)
	hot := m.AllocWord(1)
	flags := []uint64{m.AllocWord(0), m.AllocWord(2), m.AllocWord(3)}
	m.OnAllCPUs(func(c *proc.CPU) {
		c.AMOFetchAdd(hot, 1)
		c.Store(flags[c.ID()%len(flags)], uint64(c.ID()))
		c.Think(200)
		for _, f := range flags {
			c.Load(f) // leave Shared copies for the check to compare with memory
		}
	})
	mustRun(t, m)

	state := func() ([]byte, [][]uint64) {
		js, err := json.Marshal(m.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		var blocks [][]uint64
		for _, d := range m.Dirs {
			blocks = append(blocks, d.Blocks())
		}
		return js, blocks
	}
	js0, blocks0 := state()
	shared := 0
	for _, c := range m.CPUs {
		shared += len(c.Cache().ResidentBlocks())
	}
	if shared == 0 {
		t.Fatal("no cached copies left for the check to inspect")
	}
	for i := 0; i < 2; i++ {
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("coherence violated: %v", err)
		}
	}
	js1, blocks1 := state()
	if !bytes.Equal(js0, js1) {
		t.Errorf("CheckCoherence changed the metrics:\nbefore %s\nafter  %s", js0, js1)
	}
	for n := range blocks0 {
		if !slices.Equal(blocks0[n], blocks1[n]) {
			t.Errorf("node %d: CheckCoherence changed the directory blocks: %#x -> %#x", n, blocks0[n], blocks1[n])
		}
	}
}
