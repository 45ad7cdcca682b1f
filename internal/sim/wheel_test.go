package sim

import (
	"slices"
	"testing"
)

// The timing wheel must dispatch in exactly the (time, sequence) order of a
// single sorted queue. These tests drive the Sequential kernel and a plain
// sorted-slice oracle through the same deterministic event cascade and
// compare every dispatch, every RunUntil result and every Pending count.

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed pure function
// used to derive each event's children from its id.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// orderDelay picks a delay around the wheel's edges: same-cycle, next-cycle,
// the last in-wheel cycle, the first far cycles, far beyond the wheel, and
// uniform draws inside and across it.
func orderDelay(h uint64) Time {
	switch h % 10 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSize - 1
	case 3:
		return wheelSize
	case 4:
		return wheelSize + 1
	case 5:
		return 7*wheelSize + 13
	case 6:
		return 2 * wheelSize
	case 7:
		return Time(h>>8) % 4 // bunch events on a few cycles
	case 8:
		return Time(h>>8) % wheelSize
	default:
		return Time(h>>8) % (4 * wheelSize)
	}
}

type dispatchRec struct {
	at Time
	id int
}

// orderScript is the workload both kernels run. Ids are handed out in push
// order and every dispatched event pushes children whose count and delays
// are a pure function of its id, so two kernels that dispatch in the same
// order record the same trace, and the first out-of-order dispatch changes
// every id after it.
type orderScript struct {
	seed     uint64
	budget   int // pushes left
	nextID   int
	stopAt   int // id whose dispatch calls stop; -1 for none
	trace    []dispatchRec
	now      func() Time
	schedule func(delay Time, id int)
	stop     func()
}

func (s *orderScript) push(delay Time) {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := s.nextID
	s.nextID++
	s.schedule(delay, id)
}

func (s *orderScript) fire(id int) {
	s.trace = append(s.trace, dispatchRec{s.now(), id})
	if id == s.stopAt {
		s.stop()
	}
	h := splitmix(s.seed ^ uint64(id)<<20)
	for k := h % 4; k > 0; k-- {
		h = splitmix(h)
		s.push(orderDelay(h))
	}
}

// refKernel is the oracle: an unsorted slice scanned for the minimum
// (at, seq) on every dispatch.
type refKernel struct {
	now     Time
	seq     uint64
	q       []refEvent
	stopped bool
	fire    func(id int)
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refKernel) schedule(delay Time, id int) {
	r.seq++
	r.q = append(r.q, refEvent{r.now + delay, r.seq, id})
}

func (r *refKernel) runUntil(deadline Time) error {
	for len(r.q) > 0 && !r.stopped {
		m := 0
		for i, ev := range r.q {
			if ev.at < r.q[m].at || ev.at == r.q[m].at && ev.seq < r.q[m].seq {
				m = i
			}
		}
		ev := r.q[m]
		if ev.at > deadline {
			return ErrDeadline
		}
		r.now = ev.at
		r.q = slices.Delete(r.q, m, m+1)
		r.fire(ev.id)
	}
	return nil
}

// newOrderPair wires one script to a Sequential kernel and an identical one
// to the oracle.
func newOrderPair(seed uint64, budget, stopAt int) (*Sequential, *orderScript, *refKernel, *orderScript) {
	e := NewSequential()
	sa := &orderScript{seed: seed, budget: budget, stopAt: stopAt, now: e.Now, stop: e.Stop}
	sa.schedule = func(delay Time, id int) { e.Schedule(delay, func() { sa.fire(id) }) }
	r := &refKernel{}
	sb := &orderScript{seed: seed, budget: budget, stopAt: stopAt,
		now: func() Time { return r.now }, stop: func() { r.stopped = true }}
	sb.schedule = r.schedule
	r.fire = sb.fire
	return e, sa, r, sb
}

func compareTraces(t *testing.T, seed uint64, got, want []dispatchRec) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("seed %d: dispatch %d = id %d at %d, oracle says id %d at %d",
				seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d dispatches, oracle %d", seed, len(got), len(want))
	}
}

// TestWheelMatchesSortedOracle runs the cascade in RunUntil windows. Each
// window but the last ends in ErrDeadline and resumes; between windows, setup
// context pushes land relative to the last executed cycle. Some seeds call Stop
// partway through.
func TestWheelMatchesSortedOracle(t *testing.T) {
	for seed := uint64(1); seed <= 48; seed++ {
		stopAt := -1
		if seed%4 == 0 {
			stopAt = 300 + int(seed)*7
		}
		e, sa, r, sb := newOrderPair(seed, 2500, stopAt)
		h := splitmix(seed)
		setup := func() {
			for i := 0; i < 8; i++ {
				h = splitmix(h)
				d := orderDelay(h)
				sa.push(d)
				sb.push(d)
			}
		}
		setup()
		deadline := Time(0)
		for window := 0; ; window++ {
			h = splitmix(h)
			deadline += 1 + Time(h%(3*wheelSize))
			errA := e.RunUntil(deadline)
			errB := r.runUntil(deadline)
			compareTraces(t, seed, sa.trace, sb.trace)
			if errA != errB {
				t.Fatalf("seed %d window %d: RunUntil = %v, oracle %v", seed, window, errA, errB)
			}
			if e.Now() != r.now {
				t.Fatalf("seed %d window %d: Now = %d, oracle %d", seed, window, e.Now(), r.now)
			}
			if e.Pending() != len(r.q) {
				t.Fatalf("seed %d window %d: Pending = %d, oracle %d", seed, window, e.Pending(), len(r.q))
			}
			if e.Executed() != uint64(len(sa.trace)) {
				t.Fatalf("seed %d window %d: Executed = %d, trace has %d", seed, window, e.Executed(), len(sa.trace))
			}
			if errA == nil {
				break
			}
			setup()
		}
		if stopAt >= 0 {
			if e.Pending() == 0 {
				t.Fatalf("seed %d: Stop at id %d left nothing pending; the test does not exercise it", seed, stopAt)
			}
			n := len(sa.trace)
			if err := e.Run(); err != nil || len(sa.trace) != n {
				t.Fatalf("seed %d: Run after Stop = %v with %d new dispatches, want nil and none", seed, err, len(sa.trace)-n)
			}
		} else if e.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after a quiescent run", seed, e.Pending())
		}
	}
}

// TestScheduleDelayOverflowPanics: a delay that wraps the clock would place
// an event before the current cycle.
func TestScheduleDelayOverflowPanics(t *testing.T) {
	e := NewSequential()
	e.Schedule(10, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing delay did not panic")
		}
	}()
	e.Schedule(^Time(0), func() {})
}
