package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"amosim"
)

// foldCases are synthetic stacks, leaf first, with the layer each must be
// charged to.
var foldCases = []struct {
	frames []string
	count  int64
	want   string
}{
	{[]string{"runtime.mapaccess2_fast64", "amosim/internal/memsys.(*Memory).WriteBlock", "amosim/internal/directory.(*Controller).handle"}, 7, "memsys"},
	{[]string{"runtime.memmove", "amosim/internal/memsys.(*Memory).ReadBlockInto", "amosim/internal/cache.(*Cache).fill"}, 5, "memsys"},
	{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend1", "amosim/internal/sim.(*Process).yield", "amosim/internal/proc.(*CPU).Load"}, 11, "runtime.sched"},
	{[]string{"runtime.coroswitch", "iter.Pull.func2", "amosim/internal/sim.(*Process).yield"}, 2, "runtime.sched"},
	{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "amosim/internal/network.(*Network).Send"}, 3, "runtime.gc"},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, 4, "runtime.gc"},
	{[]string{"amosim/internal/sim.(*Seq).Run", "amosim/internal/machine.(*Machine).Run"}, 6, "sim"},
	{[]string{"amosim/internal/directory/internalpkg.f"}, 1, "directory"},
	{[]string{"runtime.memmove", "amosim.RunBarrier.func2"}, 1, "amosim"},
	{[]string{"syscall.Syscall", "os.(*File).Write", "main.report", "main.main"}, 1, "bench"},
	{[]string{"runtime.nanotime", "runtime.goexit"}, 2, "other"},
	{[]string{"runtime._ExternalCode"}, 1, "other"},
}

func TestFoldStack(t *testing.T) {
	for _, c := range foldCases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("foldStack(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestFoldSharesSumToOne(t *testing.T) {
	var samples []sample
	var total int64
	for _, c := range foldCases {
		samples = append(samples, sample{frames: c.frames, count: c.count})
		total += c.count
	}
	counts := map[string]int64{}
	foldSamples(samples, counts)
	var sum float64
	for l, s := range shares(counts) {
		sum += s
		if want := float64(counts[l]) / float64(total); s != want {
			t.Errorf("share of %s = %g, want %g", l, s, want)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if got, want := counts["memsys"], int64(12); got != want {
		t.Errorf("memsys samples = %d, want %d: map and memmove leaves belong to their caller", got, want)
	}
}

// TestDecodeProfile decodes a real CPU profile of the simulator and checks
// its samples fold into the simulator's layers.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := amosim.RunBarrier(amosim.DefaultConfig(32), amosim.LLSC, amosim.BarrierOptions{Episodes: 4, Warmup: 1}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	foldSamples(samples, counts)
	var total, simulator int64
	for l, c := range counts {
		total += c
		if l != layerSched && l != layerGC && l != layerOther && l != layerBench {
			simulator += c
		}
	}
	if total == 0 || simulator == 0 {
		t.Fatalf("profile folded to %v: want samples in the simulator's layers", counts)
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}
