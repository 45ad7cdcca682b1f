package sim

import "testing"

// The event kernel's pooled-arena contract: once the arena has warmed up,
// scheduling and dispatching events — and context-switching processes —
// allocates nothing. These tests pin that at exactly zero so a regression
// on the hot path fails CI rather than silently eroding throughput.

func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	var n int
	fn := func() { n++ }
	burst := func() {
		for i := 0; i < 64; i++ {
			eng.Schedule(Time(i%7), fn)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst() // warm the arena and the heap slice
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("Schedule steady state allocates %.1f/op, want 0", allocs)
	}
}

var testCall = func(a any) { *a.(*int)++ }

func TestScheduleCallSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	var n int
	arg := &n
	burst := func() {
		for i := 0; i < 64; i++ {
			eng.ScheduleCall(Time(i%7), testCall, arg)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("ScheduleCall steady state allocates %.1f/op, want 0", allocs)
	}
}

// farHopper is the argument of farHop: each dispatch reschedules itself
// beyond the timing wheel until left runs out.
type farHopper struct {
	eng  *Sequential
	left int
}

func farHop(a any) {
	h := a.(*farHopper)
	if h.left > 0 {
		h.left--
		h.eng.ScheduleCall(wheelSize+Time(h.left%3), farHop, h)
	}
}

// TestScheduleFarPathSteadyStateZeroAlloc covers the queue's far path:
// bursts mix in-wheel delays with delays of wheelSize and more, pushed both
// from setup context and from running handlers, so bucket linking, far-heap
// pushes and the migration of far events into the wheel all run.
func TestScheduleFarPathSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	var n int
	arg := &n
	fn := func() { n++ }
	hoppers := make([]farHopper, 4)
	burst := func() {
		for i := 0; i < 64; i++ {
			d := Time(i%7) * (wheelSize/2 + 1)
			if i%2 == 0 {
				eng.ScheduleCall(d, testCall, arg)
			} else {
				eng.Schedule(d, fn)
			}
		}
		for i := range hoppers {
			hoppers[i] = farHopper{eng: eng, left: 5}
			eng.ScheduleCall(Time(i), farHop, &hoppers[i])
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("far-path steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestProcessSwitchSteadyStateZeroAlloc keeps four spinners in lockstep, so
// another spinner's wake is always due by the time a sleep would end and no
// sleep runs ahead: every sleep is a real coroutine round trip.
func TestProcessSwitchSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	defer eng.Shutdown()
	for i := 0; i < 4; i++ {
		eng.Spawn("spinner", 0, func(p *Process) {
			for {
				p.Sleep(10)
			}
		})
	}
	deadline := Time(0)
	window := func() {
		deadline += 1000
		if err := eng.RunUntil(deadline); err != ErrDeadline {
			t.Fatalf("RunUntil = %v, want ErrDeadline (spinners never finish)", err)
		}
	}
	window() // warm: grow the event arena and heap to their steady size
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("process context switching allocates %.1f/op, want 0", allocs)
	}
	if eng.aheads != 0 {
		t.Fatalf("%d lockstep sleeps ran ahead; the test must time real switches", eng.aheads)
	}
}

// TestSleepRunAheadSteadyStateZeroAlloc covers the other path: a lone
// sleeper, whose every sleep but the one that crosses a window's deadline
// runs ahead.
func TestSleepRunAheadSteadyStateZeroAlloc(t *testing.T) {
	eng := NewEngine()
	defer eng.Shutdown()
	eng.Spawn("sleeper", 0, func(p *Process) {
		for {
			p.Sleep(1)
		}
	})
	const width = 1000
	// Warm up: the first window's sleeps all run ahead, and the one that
	// crosses its deadline parks with its wake due at width+1.
	deadline := Time(width)
	if err := eng.RunUntil(deadline); err != ErrDeadline {
		t.Fatalf("RunUntil = %v, want ErrDeadline", err)
	}
	window := func() {
		deadline += width
		before := eng.aheads
		if err := eng.RunUntil(deadline); err != ErrDeadline {
			t.Fatalf("RunUntil = %v, want ErrDeadline (the sleeper never finishes)", err)
		}
		if n := eng.aheads - before; n != width-1 {
			t.Fatalf("%d of %d sleeps ran ahead in the window, want %d", n, width, width-1)
		}
	}
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("run-ahead sleeping allocates %.1f/op, want 0", allocs)
	}
}
