package sim

import "math/bits"

// Timing-wheel geometry. Hand-off delays in the modelled machine are short
// and bounded by the Table 1 parameters, so nearly every push is due within
// wheelSize cycles (DESIGN.md §12 has the delay histogram behind the size).
// The size is fixed, not a knob; it must be a power of two and a multiple of
// 64, one occupancy-bitmap word per 64 buckets.
const (
	wheelSize = 1024
	wheelMask = wheelSize - 1
)

// event is one arena slot: call(arg) runs at cycle at. seq is the global
// push order, which breaks ties in the far heap; next links the slot into
// its wheel bucket's FIFO.
type event struct {
	at   Time
	seq  uint64
	call func(any)
	arg  any
	next int32
}

// Sequential is the single-queue discrete-event kernel: one event queue, one
// clock, events dispatched strictly in (time, sequence) order. The zero
// value is not usable; create one with NewSequential.
//
// The queue is a timing wheel plus a far heap. An event due less than
// wheelSize cycles ahead is appended to the FIFO bucket of its due cycle;
// later events wait in a binary heap ordered by (time, sequence). Whenever
// the clock advances to a new cycle, every far event that has come within
// wheelSize cycles moves to its bucket in heap order, before any event of
// the new cycle runs or pushes. A far event for cycle T was pushed while T
// was still at least wheelSize cycles away, so it precedes every event later
// pushed straight into T's bucket; a bucket therefore always holds one
// cycle's events in push order, and the dispatch order is exactly the
// (time, sequence) order of a single heap.
//
// The queue is allocation-free in steady state: events live in a pooled
// arena recycled through a free list, and the buckets and the heap hold
// arena slots, so neither scheduling nor dispatch boxes through interfaces
// or grows anything once the arena has warmed up. Hot callers use
// ScheduleCall with a prebound func(any) plus a pointer argument, which
// stores both without allocating.
type Sequential struct {
	now Time
	seq uint64
	// arena holds every event slot ever allocated; free lists the recycled
	// slots.
	arena []event
	free  []int32
	// head and tail delimit each wheel bucket's FIFO; they are meaningful
	// only while the bucket's bit in occupied is set. near counts the events
	// in the wheel.
	head     [wheelSize]int32
	tail     [wheelSize]int32
	occupied [wheelSize / 64]uint64
	near     int
	// far is the binary heap of slots due wheelSize or more cycles after
	// the clock, in (at, seq) order.
	far      []int32
	executed uint64
	procs    int // live (spawned, not yet finished) processes
	// plist records every spawned process so Shutdown can unwind the parked
	// and never-dispatched ones.
	plist    []*Process
	stopped  bool
	shutdown bool
	// running guards against re-entrant Run calls from event handlers;
	// deadline is the bound of the RunUntil in progress.
	running  bool
	deadline Time
	// aheads counts the sleeps that ran ahead (see runAhead).
	aheads uint64
	sink   func(cycle uint64, kind, what string)
}

// NewSequential returns an empty engine at time zero.
func NewSequential() *Sequential {
	return &Sequential{}
}

// Now returns the current simulated time.
func (e *Sequential) Now() Time { return e.now }

// Executed reports the total number of events the engine has dispatched.
func (e *Sequential) Executed() uint64 { return e.executed }

// ForNode implements Engine: the sequential kernel is its own view for
// every node.
func (e *Sequential) ForNode(node int) Engine { return e }

// NumShards implements Engine.
func (e *Sequential) NumShards() int { return 1 }

// NodeShard implements Engine.
func (e *Sequential) NodeShard(node int) int { return 0 }

// Emit implements Engine: with a single queue, execution order is emission
// order, so records flow straight to the sink.
func (e *Sequential) Emit(cycle uint64, kind, what string) {
	if e.sink != nil {
		e.sink(cycle, kind, what)
	}
}

// SetEmitSink implements Engine.
func (e *Sequential) SetEmitSink(sink func(cycle uint64, kind, what string)) { e.sink = sink }

// Schedule runs fn at now+delay. Events scheduled at the same instant run in
// scheduling order. Schedule may be called from event handlers and from
// processes.
func (e *Sequential) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	e.push(e.now+delay, callFunc, fn)
}

// ScheduleCall runs call(arg) at now+delay. It is the allocation-free form
// of Schedule: with a prebound call (package-level func or a func value
// created once at construction) and a pointer-typed arg, scheduling stores
// both into a pooled event slot without heap allocation.
func (e *Sequential) ScheduleCall(delay Time, call func(any), arg any) {
	if call == nil {
		panic("sim: ScheduleCall with nil call")
	}
	e.push(e.now+delay, call, arg)
}

// ScheduleCallNode implements Engine: with a single shard the destination
// node never changes the queue.
func (e *Sequential) ScheduleCallNode(node int, delay Time, call func(any), arg any) {
	e.ScheduleCall(delay, call, arg)
}

func (e *Sequential) push(at Time, call func(any), arg any) {
	e.seq++
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		id = int32(len(e.arena) - 1)
	}
	ev := &e.arena[id]
	ev.at, ev.seq, ev.call, ev.arg = at, e.seq, call, arg
	if at-e.now < wheelSize {
		// The free-list slot's ownership passes to its bucket.
		e.link(id) //lint:owns-transfer
		return
	}
	if at < e.now {
		// The delay overflowed the clock: the event would be due before
		// the current cycle.
		panic("sim: time went backwards")
	}
	e.far = append(e.far, id)
	e.siftUp(len(e.far) - 1)
}

// link appends slot id to the FIFO of its due cycle's wheel bucket.
func (e *Sequential) link(id int32) {
	b := e.arena[id].at & wheelMask
	w, bit := b>>6, uint64(1)<<(b&63)
	if e.occupied[w]&bit == 0 {
		e.occupied[w] |= bit
		e.head[b] = id
	} else {
		e.arena[e.tail[b]].next = id
	}
	e.tail[b] = id
	e.near++
}

// due returns the wheel bucket holding the earliest pending wheel event: the
// first occupied bucket at or after the clock's, wrapping around. The wheel
// must not be empty.
func (e *Sequential) due() int {
	i := int(e.now & wheelMask)
	w := i >> 6
	if m := e.occupied[w] >> (i & 63); m != 0 {
		return i + bits.TrailingZeros64(m)
	}
	for k := 1; k < len(e.occupied); k++ {
		ww := (w + k) % len(e.occupied)
		if m := e.occupied[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	// Wrapped all the way round: the earliest event lies below i in word w.
	return w<<6 + bits.TrailingZeros64(e.occupied[w])
}

// nextAt returns the cycle of the earliest pending event, or false when the
// queue is empty. Far events are due at least wheelSize cycles after the
// clock and wheel events less, so a non-empty wheel always holds the
// earliest one.
func (e *Sequential) nextAt() (Time, bool) {
	if e.near > 0 {
		return e.now + Time((e.due()-int(e.now&wheelMask))&wheelMask), true
	}
	if len(e.far) > 0 {
		return e.arena[e.far[0]].at, true
	}
	return 0, false
}

// advance moves the clock to t and migrates every far event now due within
// wheelSize cycles into its bucket, in heap order. It runs before any event
// at t is dispatched, so migrated events precede every later direct push.
func (e *Sequential) advance(t Time) {
	e.now = t
	for len(e.far) > 0 {
		id := e.far[0]
		if e.arena[id].at-t >= wheelSize {
			return
		}
		last := len(e.far) - 1
		e.far[0] = e.far[last]
		e.far = e.far[:last]
		if last > 0 {
			e.siftDown(0)
		}
		e.link(id)
	}
}

func (e *Sequential) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *Sequential) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.far[i], e.far[parent]) {
			break
		}
		e.far[i], e.far[parent] = e.far[parent], e.far[i]
		i = parent
	}
}

func (e *Sequential) siftDown(i int) {
	n := len(e.far)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.less(e.far[r], e.far[l]) {
			m = r
		}
		if !e.less(e.far[m], e.far[i]) {
			break
		}
		e.far[i], e.far[m] = e.far[m], e.far[i]
		i = m
	}
}

// Pending reports the number of queued events.
func (e *Sequential) Pending() int { return e.near + len(e.far) }

// LiveProcesses reports the number of spawned processes that have not yet
// returned.
func (e *Sequential) LiveProcesses() int { return e.procs }

// Run executes events until the queue drains. It returns nil when the queue
// is empty and no processes remain parked, or an *ErrDeadlock if parked
// processes can never be woken.
func (e *Sequential) Run() error {
	return e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= deadline. It returns nil if the
// simulation quiesced (possibly before the deadline), an *ErrDeadlock on
// deadlock, or ErrDeadline if the deadline fired with work remaining.
func (e *Sequential) RunUntil(deadline Time) error {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.deadline = deadline
	defer func() { e.running = false }()
	for !e.stopped {
		at, ok := e.nextAt()
		if !ok {
			break
		}
		if at > deadline {
			return ErrDeadline
		}
		if at != e.now {
			// A far event's cycle may have no bucket yet: advance migrates
			// it into one.
			e.advance(at)
		}
		b := int(at & wheelMask)
		id := e.head[b]
		ev := &e.arena[id]
		if id == e.tail[b] {
			e.occupied[b>>6] &^= 1 << (b & 63)
		} else {
			e.head[b] = ev.next
		}
		e.near--
		call, arg := ev.call, ev.arg
		// Release the slot before dispatching so the handler can reuse it;
		// zero it defensively so stale callbacks can never leak.
		*ev = event{}
		e.free = append(e.free, id)
		e.executed++
		call(arg)
	}
	if e.procs > 0 && !e.stopped {
		return &ErrDeadlock{At: e.now, Procs: e.procs}
	}
	return nil
}

// Stop makes Run return after the current event completes. Parked processes
// remain parked; call Shutdown to unwind them.
func (e *Sequential) Stop() { e.stopped = true }

// Shutdown unwinds every parked or never-dispatched process; stopping a
// process that already finished is a no-op. After Shutdown the engine must
// not be used. It is safe to call Shutdown multiple times. Shutdown must not
// be called from inside a process or event handler.
func (e *Sequential) Shutdown() {
	if e.shutdown {
		return
	}
	e.shutdown = true
	for _, p := range e.plist {
		p.stop()
	}
	e.plist = nil
}

// --- scheduler (process support) --------------------------------------------

func (e *Sequential) schedCall(delay Time, call func(any), arg any) {
	e.ScheduleCall(delay, call, arg)
}

func (e *Sequential) clock() Time { return e.now }

// runAhead dispatches a sleeping process's wake in place when that wake
// would be the very next event: the run is neither stopped nor about to pass
// its deadline, now+d does not wrap the clock, and no pending event is due
// at or before now+d (one due at that cycle was pushed earlier, so it would
// run first). It then does what
// dispatching the wake would have done — consume a sequence number, move the
// clock, count the event — and reports true, and the process carries on
// without parking. Otherwise it reports false and the process must push its
// wake and park.
func (e *Sequential) runAhead(d Time) bool {
	t := e.now + d
	if e.stopped || t > e.deadline || t < e.now {
		return false
	}
	if at, ok := e.nextAt(); ok && at <= t {
		return false
	}
	e.seq++
	e.advance(t)
	e.executed++
	e.aheads++
	return true
}

func (e *Sequential) procStart(p *Process) {
	e.procs++
	e.plist = append(e.plist, p)
}

func (e *Sequential) procExit() { e.procs-- }

// Spawn starts fn as a new process after delay cycles. The process runs to
// completion unless the engine is shut down first. name is used in debugging
// output only.
func (e *Sequential) Spawn(name string, delay Time, fn func(p *Process)) *Process {
	return spawn(e, name, delay, fn)
}
