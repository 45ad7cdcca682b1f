package sim

import "testing"

// Kernel microbenchmarks: the simulator's host-side speed bounds how large
// an experiment is practical, so we track the cost of the two hot paths —
// event scheduling/dispatch and process context switches.

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyDelays is the hand-off mix of BenchmarkScheduleSteadyPending: mostly
// short delays, a quarter of them same-cycle, one in sixteen beyond the
// timing wheel.
var steadyDelays = [16]Time{0, 1, 0, 2, 5, 60, 100, 3, 0, 12, 200, 1, 400, 0, 30, 2 * wheelSize}

type steadyLoad struct {
	eng  *Sequential
	left int
	n    int
}

func steadyHop(a any) {
	s := a.(*steadyLoad)
	if s.left > 0 {
		s.left--
		s.n++
		s.eng.ScheduleCall(steadyDelays[s.n&15], steadyHop, s)
	}
}

// BenchmarkScheduleSteadyPending keeps 64 events pending, as a running
// machine does, and every dispatch reschedules itself with the mixed delays
// above. One op is one dispatched event, so ns/op is the kernel's host cost
// per event.
func BenchmarkScheduleSteadyPending(b *testing.B) {
	e := NewEngine()
	s := &steadyLoad{eng: e, left: b.N}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), steadyHop, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSleeps times procs processes that each sleep one cycle at a time, b.N
// sleeps in all (rounded up to a multiple of procs), so ns/op is the host
// cost of one sleep. It returns the engine for the caller's path check.
func benchSleeps(b *testing.B, procs int) *Sequential {
	e := NewEngine()
	n := (b.N + procs - 1) / procs
	for i := 0; i < procs; i++ {
		e.Spawn("p", 0, func(p *Process) {
			for j := 0; j < n; j++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	e.Shutdown()
	return e
}

// BenchmarkProcessSwitch keeps two processes in lockstep: each one's wake is
// queued behind the other's, so no sleep runs ahead and every op is a full
// coroutine round trip (park, dispatch, resume).
func BenchmarkProcessSwitch(b *testing.B) {
	if e := benchSleeps(b, 2); e.aheads != 0 {
		b.Fatalf("%d sleeps ran ahead; the benchmark must time real switches", e.aheads)
	}
}

// BenchmarkSleepRunAhead times a lone sleeper: nothing else is queued, so
// every sleep completes in place without a coroutine switch.
func BenchmarkSleepRunAhead(b *testing.B) {
	if e := benchSleeps(b, 1); e.aheads != uint64(b.N) {
		b.Fatalf("%d of %d sleeps ran ahead, want all", e.aheads, b.N)
	}
}

func BenchmarkCondBroadcast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		c := NewCond(e)
		for j := 0; j < 64; j++ {
			e.Spawn("w", 0, func(p *Process) { c.Wait(p) })
		}
		e.Schedule(10, c.Broadcast)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		e.Shutdown()
	}
}
