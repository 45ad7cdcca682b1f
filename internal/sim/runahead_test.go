package sim

import (
	"fmt"
	"testing"
)

// Run-ahead sleeps must be invisible to the model. These tests run the same
// seeded process programs on the sequential kernel, which completes eligible
// sleeps in place, and on a one-shard parallel kernel, which never does, and
// require the same observations from both: every step every process takes,
// at the same cycle and in the same order, and the same Executed, Now,
// Pending and RunUntil result at every window end.

// sleepDelay picks a sleep length: same-cycle, next-cycle, short hand-offs,
// both sides of the wheel's edge, and far beyond it.
func sleepDelay(h uint64) Time {
	switch h % 8 {
	case 0:
		return 0
	case 1, 2:
		return 1
	case 3:
		return 2 + Time(h>>8)%6
	case 4:
		return Time(h>>8) % 100
	case 5:
		return wheelSize - 1
	case 6:
		return wheelSize + 1
	default:
		return 3*wheelSize + 5
	}
}

type stepRec struct {
	proc, step int
	at         Time
}

// aheadProgram is one seeded program: procs processes take steps, each a
// sleep, a Cond wait or an Await, and a ticker event broadcasts the Cond
// while any process is alive. Process stopper calls Stop at step stopStep
// and then sleeps on, which a stopped run must not let it do.
type aheadProgram struct {
	seed      uint64
	procs     int
	steps     int
	tick      Time // broadcast period
	stopper   int  // -1 for none
	stopStep  int
	recs      []stepRec
	live      int
	cond      Cond
	view      Engine
	broadcast func()
}

func (g *aheadProgram) start(eng Engine) {
	g.view = eng.ForNode(0)
	g.live = g.procs
	g.broadcast = func() {
		g.cond.Broadcast()
		if g.live > 0 {
			g.view.Schedule(g.tick, g.broadcast)
		}
	}
	g.view.Schedule(g.tick, g.broadcast)
	for i := 0; i < g.procs; i++ {
		eng.Spawn(fmt.Sprint("p", i), Time(i%2), func(p *Process) { g.body(p, i) })
	}
}

func (g *aheadProgram) body(p *Process, id int) {
	h := splitmix(g.seed ^ uint64(id+1)<<40)
	for step := 0; step < g.steps; step++ {
		if id == g.stopper && step == g.stopStep {
			g.view.Stop()
		}
		h = splitmix(h)
		switch h % 16 {
		case 0:
			g.cond.Wait(p)
		case 1:
			d := Time(h>>8) % 40
			p.Await(func(wake func()) { g.view.Schedule(d, wake) })
		default:
			p.Sleep(sleepDelay(h >> 4))
		}
		g.recs = append(g.recs, stepRec{id, step, p.Now()})
	}
	g.live--
}

func newAheadProgram(seed uint64) *aheadProgram {
	h := splitmix(seed)
	g := &aheadProgram{seed: seed, procs: 1 + int(h%4), steps: 200, stopper: -1}
	if seed%4 == 0 {
		g.tick = 3*wheelSize + Time(h>>8)%wheelSize // long quiet stretches
	} else {
		g.tick = 5 + Time(h>>8)%60
	}
	if seed%5 == 0 {
		g.stopper, g.stopStep = 0, 20+int(h>>16)%100
	}
	return g
}

type windowEnd struct {
	err      error
	executed uint64
	now      Time
	pending  int
}

func endOf(eng Engine, err error) windowEnd {
	return windowEnd{err, eng.Executed(), eng.Now(), eng.Pending()}
}

func TestSleepRunAheadMatchesParallelKernel(t *testing.T) {
	var aheads, stops int
	for seed := uint64(1); seed <= 60; seed++ {
		seq := NewSequential()
		par := NewParallel(1, []int{0}, 0)
		ga, gb := newAheadProgram(seed), newAheadProgram(seed)
		ga.start(seq)
		gb.start(par)
		h := splitmix(^seed)
		deadline := Time(0)
		for window := 0; ; window++ {
			h = splitmix(h)
			if h%3 == 0 {
				deadline += 1 + Time(h>>8)%8 // cut run-ahead chains short
			} else {
				deadline += 1 + Time(h>>8)%(3*wheelSize)
			}
			a, b := endOf(seq, seq.RunUntil(deadline)), endOf(par, par.RunUntil(deadline))
			for i := range min(len(ga.recs), len(gb.recs)) {
				if ga.recs[i] != gb.recs[i] {
					t.Fatalf("seed %d window %d: record %d is %+v, parallel kernel %+v",
						seed, window, i, ga.recs[i], gb.recs[i])
				}
			}
			if len(ga.recs) != len(gb.recs) {
				t.Fatalf("seed %d window %d: %d records, parallel kernel %d", seed, window, len(ga.recs), len(gb.recs))
			}
			if a != b {
				t.Fatalf("seed %d window %d (deadline %d): window end %+v, parallel kernel %+v", seed, window, deadline, a, b)
			}
			if a.err != ErrDeadline {
				break
			}
		}
		if ga.stopper >= 0 {
			stops++
			if n := len(ga.recs); seq.Run() != nil || len(ga.recs) != n {
				t.Fatalf("seed %d: a stopped run went on", seed)
			}
		}
		aheads += int(seq.aheads)
		seq.Shutdown()
		par.Shutdown()
	}
	if aheads == 0 || stops == 0 {
		t.Fatalf("%d sleeps ran ahead and %d programs stopped; the test exercises neither path", aheads, stops)
	}
}

// TestSleepRunAheadStopsAtDeadlineAndStop pins the edges of a chain exactly:
// a lone sleeper runs ahead up to the deadline but not past it, and after it
// calls Stop its next sleep parks.
func TestSleepRunAheadStopsAtDeadlineAndStop(t *testing.T) {
	e := NewSequential()
	defer e.Shutdown()
	var after []Time
	e.Spawn("sleeper", 0, func(p *Process) {
		for i := 0; i < 30; i++ {
			p.Sleep(1)
		}
		e.Stop()
		p.Sleep(1)
		after = append(after, p.Now())
	})
	if err := e.RunUntil(10); err != ErrDeadline {
		t.Fatalf("RunUntil(10) = %v, want ErrDeadline", err)
	}
	// The spawn dispatch, then ten sleeps in place; the eleventh is due at
	// cycle 11 and waits in the queue.
	if e.Now() != 10 || e.Executed() != 11 || e.Pending() != 1 || e.aheads != 10 {
		t.Fatalf("after RunUntil(10): Now %d, Executed %d, Pending %d, aheads %d; want 10, 11, 1, 10",
			e.Now(), e.Executed(), e.Pending(), e.aheads)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 30 || e.Executed() != 31 || e.Pending() != 1 || len(after) != 0 {
		t.Fatalf("after Stop: Now %d, Executed %d, Pending %d, %d steps past Stop; want 30, 31, 1, 0",
			e.Now(), e.Executed(), e.Pending(), len(after))
	}
}

// TestSleepDelayOverflowPanics: a sleep whose wake cycle wraps the clock
// must not run ahead (it would move the clock backwards) but panic at the
// push, as a scheduled event does.
func TestSleepDelayOverflowPanics(t *testing.T) {
	e := NewSequential()
	defer e.Shutdown()
	e.Spawn("p", 0, func(p *Process) {
		p.Sleep(10)
		p.Sleep(^Time(0))
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "sim: time went backwards" {
		t.Fatalf("recovered %v from Run, want the push's overflow panic", got)
	}
}
