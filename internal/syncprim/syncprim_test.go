package syncprim

import (
	"fmt"
	"testing"

	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/proc"
)

func newMachine(t testing.TB, procs int, mutate ...func(*config.Config)) *machine.Machine {
	t.Helper()
	cfg := config.Default(procs)
	for _, f := range mutate {
		f(&cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func mustRun(t testing.TB, m *machine.Machine) uint64 {
	t.Helper()
	at, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return at
}

// TestBarrierAllMechanisms checks, for every mechanism, that no CPU passes
// episode e of the barrier before all CPUs have entered episode e: we track
// a per-episode arrival count and assert each CPU observes the full count
// right after the barrier.
func TestBarrierAllMechanisms(t *testing.T) {
	const procs = 8
	const episodes = 4
	for _, mech := range Mechanisms {
		t.Run(mech.String(), func(t *testing.T) {
			m := newMachine(t, procs)
			b := NewBarrier(m, mech, procs, 0)
			arrived := make([]int, episodes)
			violations := 0
			m.OnAllCPUs(func(c *proc.CPU) {
				for e := 0; e < episodes; e++ {
					// Deterministic skew so arrivals are spread out.
					c.Think(uint64(c.ID()*37 + e*11))
					arrived[e]++
					b.Wait(c)
					if arrived[e] != procs {
						violations++
					}
				}
			})
			mustRun(t, m)
			if violations != 0 {
				t.Fatalf("%d barrier violations (some CPU passed before all arrived)", violations)
			}
		})
	}
}

func TestBarrierSingleProcDegenerate(t *testing.T) {
	m := newMachine(t, 2)
	b := NewBarrier(m, AMO, 1, 0)
	done := false
	m.OnCPU(0, func(c *proc.CPU) {
		b.Wait(c)
		b.Wait(c)
		done = true
	})
	mustRun(t, m)
	if !done {
		t.Fatal("single-proc barrier did not pass")
	}
}

func TestTreeBarrierAllMechanisms(t *testing.T) {
	const procs = 16
	const episodes = 3
	for _, mech := range Mechanisms {
		for _, branching := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/b%d", mech, branching), func(t *testing.T) {
				m := newMachine(t, procs)
				tb := NewTreeBarrier(m, mech, procs, branching)
				arrived := make([]int, episodes)
				violations := 0
				m.OnAllCPUs(func(c *proc.CPU) {
					for e := 0; e < episodes; e++ {
						c.Think(uint64(c.ID()*13 + e*7))
						arrived[e]++
						tb.Wait(c)
						if arrived[e] != procs {
							violations++
						}
					}
				})
				mustRun(t, m)
				if violations != 0 {
					t.Fatalf("%d tree barrier violations", violations)
				}
			})
		}
	}
}

func TestTreeBarrierUnevenGroups(t *testing.T) {
	const procs = 10 // 10 procs, branching 4 -> groups of 4, 4, 2
	m := newMachine(t, procs)
	tb := NewTreeBarrier(m, Atomic, procs, 4)
	if tb.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3", tb.Groups())
	}
	passed := 0
	m.OnAllCPUs(func(c *proc.CPU) {
		tb.Wait(c)
		passed++
	})
	mustRun(t, m)
	if passed != procs {
		t.Fatalf("passed = %d, want %d", passed, procs)
	}
}

// exerciseLock runs a mutual-exclusion torture test: a shared counter is
// incremented non-atomically (load, think, store) inside the critical
// section; any exclusion failure loses increments.
func exerciseLock(t *testing.T, m *machine.Machine, acquire func(c *proc.CPU) func(), iters int) {
	t.Helper()
	shared := m.AllocWord(m.Cfg.Nodes() - 1)
	inCS := 0
	maxInCS := 0
	m.OnAllCPUs(func(c *proc.CPU) {
		for i := 0; i < iters; i++ {
			release := acquire(c)
			inCS++
			if inCS > maxInCS {
				maxInCS = inCS
			}
			v := c.Load(shared)
			c.Think(50)
			c.Store(shared, v+1)
			inCS--
			release()
			c.Think(uint64(20 + c.ID()*7))
		}
	})
	mustRun(t, m)
	want := uint64(len(m.CPUs) * iters)
	// Read the final value coherently: some cache may hold it Modified.
	got := m.Mem.ReadWord(shared)
	for _, c := range m.CPUs {
		if ln := c.Cache().Lookup(shared); ln != nil && ln.State.String() == "M" {
			got = ln.Word(shared)
		}
	}
	if got != want {
		t.Fatalf("shared counter = %d, want %d (mutual exclusion violated)", got, want)
	}
	if maxInCS > 1 {
		t.Fatalf("max CPUs in critical section = %d, want 1", maxInCS)
	}
}

func TestTicketLockAllMechanisms(t *testing.T) {
	for _, mech := range Mechanisms {
		t.Run(mech.String(), func(t *testing.T) {
			m := newMachine(t, 8)
			l := NewTicketLock(m, mech, 0)
			exerciseLock(t, m, func(c *proc.CPU) func() {
				ticket := l.Acquire(c)
				return func() { l.Release(c, ticket) }
			}, 3)
		})
	}
}

func TestTicketLockWithBackoff(t *testing.T) {
	m := newMachine(t, 8)
	l := NewTicketLock(m, LLSC, 0)
	l.SetBackoff(100)
	exerciseLock(t, m, func(c *proc.CPU) func() {
		ticket := l.Acquire(c)
		return func() { l.Release(c, ticket) }
	}, 3)
}

func TestArrayLockAllMechanisms(t *testing.T) {
	for _, mech := range Mechanisms {
		t.Run(mech.String(), func(t *testing.T) {
			m := newMachine(t, 8)
			l := NewArrayLock(m, mech, 8, 0)
			exerciseLock(t, m, func(c *proc.CPU) func() {
				slot := l.Acquire(c)
				return func() { l.Release(c, slot) }
			}, 3)
		})
	}
}

func TestArrayLockWrapAround(t *testing.T) {
	// More acquisitions than slots: exercises slot reuse.
	m := newMachine(t, 4)
	l := NewArrayLock(m, Atomic, 4, 0)
	exerciseLock(t, m, func(c *proc.CPU) func() {
		slot := l.Acquire(c)
		return func() { l.Release(c, slot) }
	}, 6)
}

func TestTicketLockFIFOOrder(t *testing.T) {
	// With staggered arrivals, grants must follow ticket order.
	const procs = 8
	m := newMachine(t, procs)
	l := NewTicketLock(m, Atomic, 0)
	var grants []uint64
	m.OnAllCPUs(func(c *proc.CPU) {
		c.Think(uint64(c.ID()) * 5000) // well-separated arrivals
		ticket := l.Acquire(c)
		grants = append(grants, ticket)
		c.Think(100)
		l.Release(c, ticket)
	})
	mustRun(t, m)
	for i, g := range grants {
		if g != uint64(i) {
			t.Fatalf("grant order %v not FIFO", grants)
		}
	}
}

// TestAMOBarrierNoInvalidations verifies the headline protocol property:
// an AMO barrier episode invalidates no spinner caches — wake-up is pure
// word update.
func TestAMOBarrierNoInvalidations(t *testing.T) {
	const procs = 8
	m := newMachine(t, procs)
	b := NewBarrier(m, AMO, procs, 0)
	m.OnAllCPUs(func(c *proc.CPU) {
		c.Think(uint64(c.ID()) * 31)
		b.Wait(c)
	})
	mustRun(t, m)
	for n, d := range m.Dirs {
		if invs := d.Stats().Invalidations; invs != 0 {
			t.Fatalf("node %d sent %d invalidations during AMO barrier; want 0", n, invs)
		}
	}
	if m.Dirs[0].Stats().WordUpdates == 0 {
		t.Fatal("AMO barrier sent no word updates")
	}
}

// TestConventionalBarrierDoesInvalidate pins the contrast: the optimized
// conventional coding releases via a store that invalidates spinners.
func TestConventionalBarrierDoesInvalidate(t *testing.T) {
	const procs = 8
	m := newMachine(t, procs)
	b := NewBarrier(m, Atomic, procs, 0)
	m.OnAllCPUs(func(c *proc.CPU) {
		c.Think(uint64(c.ID()) * 31)
		b.Wait(c)
	})
	mustRun(t, m)
	var invs uint64
	for _, d := range m.Dirs {
		invs += d.Stats().Invalidations
	}
	if invs == 0 {
		t.Fatal("conventional barrier sent no invalidations; protocol model is wrong")
	}
}

func TestBarrierEpisodesIndependentPerCPUOrder(t *testing.T) {
	// CPUs run different numbers of think cycles between episodes; the
	// barrier must still align them every time.
	const procs = 4
	const episodes = 6
	m := newMachine(t, procs)
	b := NewBarrier(m, AMO, procs, 1)
	var log []int
	m.OnAllCPUs(func(c *proc.CPU) {
		for e := 0; e < episodes; e++ {
			c.Think(uint64((c.ID()*e*191 + 13) % 700))
			b.Wait(c)
			log = append(log, e)
		}
	})
	mustRun(t, m)
	// All episode-e exits must appear before any episode-e+1 exit.
	for i := 1; i < len(log); i++ {
		if log[i] < log[i-1]-0 && log[i]+1 < log[i-1] {
			t.Fatalf("episode interleaving broken: %v", log)
		}
	}
	for e := 0; e < episodes; e++ {
		n := 0
		for _, v := range log {
			if v == e {
				n++
			}
		}
		if n != procs {
			t.Fatalf("episode %d exited %d times, want %d", e, n, procs)
		}
	}
}
