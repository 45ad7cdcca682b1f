//go:build go1.23

// The build constraint raises this file's language version to 1.23 for
// iter.Pull while go.mod stays at 1.22; see DESIGN.md §12.

package sim

import "iter"

// scheduler is the narrow kernel surface a process needs: it is implemented
// by *Sequential and by the parallel engine's per-node shard views, so the
// same Process type runs on both kernels.
type scheduler interface {
	schedCall(delay Time, call func(any), arg any)
	clock() Time
	// runAhead reports whether a sleep of d cycles was completed in place
	// because its wake would be the next event dispatched; see
	// Sequential.runAhead.
	runAhead(d Time) bool
	procStart(p *Process)
	procExit()
}

// Process is a simulated thread of control backed by a coroutine. Exactly
// one process (or event handler) executes at a time on a given shard,
// handing control back to the kernel whenever it sleeps or parks, so the
// simulation stays deterministic and shared simulated state needs no
// locking.
//
// The handoff is an iter.Pull coroutine: dispatch resumes it with next, and
// park returns control with the sequence's yield. Both are direct
// coroutine switches that bypass the Go scheduler. A process is resumed
// only from the goroutine that owns its shard (the kernel's event loop),
// and its stop function is called only by Shutdown.
type Process struct {
	eng  scheduler
	name string
	fn   func(p *Process)
	// next transfers control kernel->process; yield (set when the
	// coroutine first runs) transfers it back and reports false once stop
	// has been called, which unwinds the process; stop unwinds a parked or
	// never-started process and is a no-op on a finished one.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	// wakeFn is the prebound wake function handed out by parkWaiting; it is
	// created once at Spawn so parking never allocates. wakeArmed guards
	// against waking a process that is not parked (or waking it twice).
	wakeFn    func()
	wakeArmed bool
}

// dispatchCall adapts Process.dispatch to the engine's allocation-free
// ScheduleCall form; a single package-level func value serves every process.
var dispatchCall = func(a any) { a.(*Process).dispatch() }

// shutdownSentinel is panicked inside a process when the engine is shut
// down, unwinding its stack; run recovers it so the coroutine ends quietly.
type shutdownSentinel struct{}

// spawn starts fn as a new process after delay cycles on s. The process runs
// to completion unless the engine is shut down first. name is used in
// debugging output only.
func spawn(s scheduler, name string, delay Time, fn func(p *Process)) *Process {
	p := &Process{eng: s, name: name, fn: fn}
	p.wakeFn = p.wake
	p.next, p.stop = iter.Pull(p.run)
	s.procStart(p)
	s.schedCall(delay, dispatchCall, p)
	return p
}

// run is the coroutine body. Any panic other than the shutdown sentinel is
// re-raised, and iter.Pull carries it out of the dispatching next call onto
// the kernel's goroutine.
func (p *Process) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(shutdownSentinel); ok {
				return // engine shut down; end quietly
			}
			panic(r)
		}
	}()
	p.yield = yield
	p.fn(p)
	p.eng.procExit()
}

// dispatch transfers control from the kernel to the process and returns when
// the process parks again or finishes. Called only from event context.
func (p *Process) dispatch() { p.next() }

// park returns control to the kernel and blocks until dispatched again.
// Whoever wakes this process must do so by scheduling p.dispatch (via
// Wake/Sleep/Cond), never by resuming the coroutine directly.
func (p *Process) park() {
	if !p.yield(struct{}{}) {
		panic(shutdownSentinel{})
	}
}

// Name returns the debugging name given at Spawn.
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.clock() }

// Sleep suspends the process for d cycles. Sleep(0) yields to other work
// scheduled at the current instant.
//
// On the sequential kernel a sleep runs ahead when no other event is due at
// or before its wake cycle and the run is neither stopped nor past its
// deadline by then: the kernel dispatches the wake in place (clock, sequence
// number and executed count move exactly as a dispatch would move them) and
// the process continues without a coroutine switch. What the simulation
// observes is the same either way.
func (p *Process) Sleep(d Time) {
	if p.eng.runAhead(d) {
		return
	}
	p.eng.schedCall(d, dispatchCall, p)
	p.park()
}

// wake is the prebound wake function: it schedules the process's dispatch
// and disarms itself so a second call (waking the same park twice) panics.
func (p *Process) wake() {
	if !p.wakeArmed {
		panic("sim: process woken twice")
	}
	p.wakeArmed = false
	p.eng.schedCall(0, dispatchCall, p)
}

// parkWaiting arms the process's wake function and returns it; it runs again
// only when another event calls the returned wake function. Calling wake
// more than once per park is a bug and panics.
func (p *Process) parkWaiting() (wake func()) {
	if p.wakeArmed {
		panic("sim: process already parked")
	}
	p.wakeArmed = true
	return p.wakeFn
}

// Await parks the process until wake() is invoked by some event handler. The
// register callback receives the wake function and must arrange for it to be
// called exactly once; register itself runs in the process before parking.
// The wake function is the same func value across every Await of a given
// process, so registrants may cache it.
func (p *Process) Await(register func(wake func())) {
	register(p.parkWaiting())
	p.park()
}

// Cond is a broadcast-only condition variable for processes. Waiters park
// until the next Broadcast after they began waiting. There is no Signal: the
// simulated hardware wakes all spinners and each re-checks its predicate,
// mirroring how cache-line events wake all local spin loops.
//
// The zero value is ready to use. A Cond must not be copied after first use:
// its first waiter is stored inline, since most Conds (a CPU's line events)
// only ever hold their own CPU's process.
type Cond struct {
	waiters []*Process
	first   [1]*Process
}

// NewCond returns a condition variable bound to e. Every waiter must run on
// the same shard of e, since Broadcast wakes them through their own views.
func NewCond(e Engine) *Cond { return &Cond{} }

// Wait parks the calling process until the next Broadcast.
func (c *Cond) Wait(p *Process) {
	p.parkWaiting()
	if c.waiters == nil {
		c.waiters = c.first[:0]
	}
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes every currently parked waiter. Processes that call Wait
// after Broadcast returns wait for the next one. Waking only schedules the
// waiters' dispatch events, so no waiter re-enters Wait during the loop and
// the waiter slice can be recycled in place.
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		c.waiters[i] = nil
		w.wake()
	}
	c.waiters = c.waiters[:0]
}

// Waiters reports how many processes are parked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
