package sim

import (
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits briefly for the goroutine count to fall back to
// want and returns the last count seen.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// spawnShutdownMix spawns, on each view, one process that finishes, one that
// parks forever on a Cond, and one whose start event lies beyond the run's
// deadline, so it is never dispatched. The parked process counts its
// unwinding through a deferred call; the never-dispatched one must not run
// at all.
func spawnShutdownMix(t *testing.T, views []Engine, unwound, started *int) {
	t.Helper()
	for _, v := range views {
		c := NewCond(v)
		v.Spawn("finished", 0, func(p *Process) { p.Sleep(5) })
		v.Spawn("parked", 0, func(p *Process) {
			defer func() { *unwound++ }()
			c.Wait(p)
		})
		v.Spawn("never", 1_000_000, func(p *Process) { *started++ })
	}
}

func TestShutdownUnwindsEveryProcessState(t *testing.T) {
	cases := []struct {
		name  string
		build func() (Engine, []Engine)
	}{
		{"sequential", func() (Engine, []Engine) {
			e := NewSequential()
			return e, []Engine{e}
		}},
		{"parallel-2", func() (Engine, []Engine) {
			e := NewParallel(2, []int{0, 1}, 10)
			return e, []Engine{e.ForNode(0), e.ForNode(1)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e, views := tc.build()
			var unwound, started int
			spawnShutdownMix(t, views, &unwound, &started)
			if err := e.RunUntil(1000); err != ErrDeadline {
				t.Fatalf("RunUntil = %v, want ErrDeadline", err)
			}
			if got, want := e.LiveProcesses(), 2*len(views); got != want {
				t.Fatalf("live processes before Shutdown = %d, want %d (parked + never dispatched)", got, want)
			}
			e.Shutdown()
			if unwound != len(views) {
				t.Fatalf("parked processes unwound = %d, want %d", unwound, len(views))
			}
			if started != 0 {
				t.Fatalf("never-dispatched processes ran %d times during Shutdown", started)
			}
			if after := settleGoroutines(before); after > before {
				t.Fatalf("goroutines %d -> %d after Shutdown (leak)", before, after)
			}
		})
	}
}

// TestProcessPanicReachesRunCaller pins where a process's own panic goes on
// the sequential kernel: the coroutine hands it to the dispatching event,
// so it unwinds out of Run on the caller's goroutine, where the caller can
// recover it.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	e := NewSequential()
	defer e.Shutdown()
	e.Spawn("faulty", 0, func(p *Process) {
		p.Sleep(3)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic value %q", got, "boom")
	}
	if e.Now() != 3 {
		t.Fatalf("panic surfaced at cycle %d, want 3", e.Now())
	}
}
