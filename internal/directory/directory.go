// Package directory implements the home-node directory controller of the
// simulated CC-NUMA machine: a blocking MSI write-invalidate protocol with
// interventions and invalidation-ack collection, extended with the paper's
// fine-grained get/put mechanism. A "fine get" lets the node's Active Memory
// Unit obtain the coherent value of a single word and become a
// word-granularity sharer permitted to mutate it; a "fine put" writes the
// word back to memory and pushes word updates to every CPU caching the
// block, without invalidating anyone.
//
// Transactions are serialized per block: while one is in flight the block is
// busy and later requests queue. Writebacks are exempt (processed
// immediately) so that an eviction racing an intervention resolves instead
// of deadlocking.
package directory

import (
	"fmt"
	"math/bits"
	"sort"

	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// state is the directory-side block state.
type state uint8

const (
	unowned state = iota
	shared
	exclusive
)

func (s state) String() string {
	switch s {
	case unowned:
		return "U"
	case shared:
		return "S"
	case exclusive:
		return "E"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// entry is the directory record for one block. Entries are carved from the
// controller's slabs and never freed, so a pointer to one stays valid for
// the controller's life.
type entry struct {
	c        *Controller
	block    uint64
	state    state
	busy     bool
	owner    int             // CPU id, valid when state == exclusive
	sharers  sharerSet       // sharer vector, valid when state == shared
	amuWords map[uint64]bool // word addrs held by the local AMU; nil until the first FineGet
	waitq    []func()        // head-indexed FIFO of queued transactions
	waitHead int
	// txn is the in-flight transaction while busy. It is inlined in the
	// entry and continued by step codes rather than closures, so starting,
	// continuing and finishing a transaction never allocates.
	txn txn
}

// txn is the state a transaction carries across its events.
type txn struct {
	req         network.Endpoint // requesting CPU (CPU transactions)
	addr        uint64           // fine get: the word
	got         func(uint64)     // fine get: completion callback
	reply       network.Kind     // kind of the pending data reply
	waitingAcks int              // invalidation acks still outstanding
	next        step             // runs when the scheduled occupancy ends
	afterReply  step             // runs once the data reply is sent
	afterAcks   step             // runs once the last invalidation ack arrives
	afterIvn    step             // runs when the intervention ack arrives; stepNone = none pending
	stale       bool             // the last intervention ack was stale
}

// step names a transaction continuation; Controller.step runs it.
type step uint8

const (
	stepNone step = iota
	// stepComplete ends the transaction.
	stepComplete
	// stepSendReply reads the block and sends it to the requester as
	// txn.reply, then runs txn.afterReply.
	stepSendReply
	// stepSharedGrant records the requester as a sharer.
	stepSharedGrant
	// stepExclusiveGrant records the requester as the exclusive owner.
	stepExclusiveGrant
	// stepUpgradeAck grants a true upgrade: ownership without data.
	stepUpgradeAck
	// stepReplyExclusive supplies the block for a GETX once the owner or
	// the sharers have given it up.
	stepReplyExclusive
	// stepDowngraded finishes a GETS on an owned block once the owner has
	// downgraded (or turned out to be gone).
	stepDowngraded
	// stepFineDowngraded is stepDowngraded for a fine get.
	stepFineDowngraded
	// stepFineFinish registers the AMU word and hands it its value.
	stepFineFinish
)

// addSharer inserts cpu into the sharer vector (no-op if present).
func (e *entry) addSharer(cpu int) { e.sharers.add(cpu) }

// removeSharer deletes cpu from the sharer vector (no-op if absent).
func (e *entry) removeSharer(cpu int) { e.sharers.remove(cpu) }

// hasSharer reports whether cpu is recorded as a sharer.
func (e *entry) hasSharer(cpu int) bool { return e.sharers.has(cpu) }

// clearSharers empties the sharer vector, keeping its backing storage.
func (e *entry) clearSharers() { e.sharers.clear() }

// AMUPort is how the directory reaches the Active Memory Unit that shares
// its hub. Recall must synchronously write every AMU-cached word of the
// block back to memory and invalidate the AMU's copies.
type AMUPort interface {
	Recall(block uint64)
}

// Params carries the timing and geometry knobs the controller needs.
type Params struct {
	Node         int
	ProcsPerNode int
	// Procs is the machine's total CPU count; it sizes the coarse bitmap
	// the sharer vector promotes to (0 = grow on demand).
	Procs      int
	BlockBytes int
	DirCycles  uint64
	DRAMCycles uint64
	// InjectCycles serializes fan-out: the i-th message of an invalidation
	// or word-update burst leaves the hub i*InjectCycles after the first
	// (one network port, one packet at a time). This is the t_p term of the
	// paper's AMO cost model.
	InjectCycles uint64
	// MulticastUpdates disables injection serialization for word-update
	// bursts only (hardware multicast; the paper's footnote 2).
	MulticastUpdates bool
}

// Controller is one node's directory controller.
type Controller struct {
	eng  sim.Engine
	net  *network.Network
	pool *network.DataPool
	mem  *memsys.Memory
	amu  AMUPort
	p    Params

	// table maps a block's offset within the node (in blocks) to its
	// entry; nil slots are blocks nobody has touched. Entries come from
	// slab, a run of records that is replaced by a larger one when full;
	// exactRun holds the first sharer-list slots of the slab's entries.
	table      []*entry
	slab       []entry
	exactRun   []int
	blockShift uint

	// reqFree/fineFree recycle the request and fine-grained AMU records
	// below, so accepting a CPU request or an AMU transaction never
	// allocates.
	reqFree  []*dirReq
	fineFree []*fineJob

	perturb  Perturber
	observer func(block uint64)

	stats metrics.DirectoryStats
}

// dirReq is a pooled CPU-request record. Its run/deferred funcs are bound
// once at construction; the record returns to the controller's free list the
// moment its transaction starts (processRequest copies the message).
type dirReq struct {
	c       *Controller
	block   uint64
	m       network.Msg
	run     func() // start the transaction, releasing the record first
	delayed func() // submit after a perturber delay
}

func (c *Controller) acquireReq() *dirReq {
	if k := len(c.reqFree) - 1; k >= 0 {
		r := c.reqFree[k]
		c.reqFree = c.reqFree[:k]
		return r
	}
	r := &dirReq{c: c}
	r.run = func() {
		block, m := r.block, r.m
		r.block, r.m = 0, network.Msg{}
		r.c.reqFree = append(r.c.reqFree, r)
		r.c.processRequest(block, m)
	}
	r.delayed = func() { r.c.submit(r.block, r.run) }
	return r
}

// fineJob is a pooled fine-get (got != nil), fine-put (read != nil) or
// fine-evict record: the submit/occupy chain runs through prebound funcs,
// so an AMU transaction never allocates.
type fineJob struct {
	c     *Controller
	block uint64
	addr  uint64
	val   uint64
	got   func(uint64)          // fine get: completion callback
	read  func() (uint64, bool) // fine put: AMU value read at execution time
	done  func()                // fine put: completion callback
	start func()
	flush func()
}

func (c *Controller) acquireFine() *fineJob {
	if k := len(c.fineFree) - 1; k >= 0 {
		j := c.fineFree[k]
		c.fineFree = c.fineFree[:k]
		return j
	}
	j := &fineJob{c: c}
	j.start = func() {
		ctl := j.c
		e := ctl.entryOf(j.block)
		if j.got != nil {
			e.txn.addr, e.txn.got = j.addr, j.got
			ctl.releaseFine(j)
			ctl.fineGet(e)
			return
		}
		if j.read != nil {
			val, ok := j.read()
			if !ok || !e.amuWords[j.addr] {
				done := j.done
				ctl.releaseFine(j)
				ctl.complete(e)
				done()
				return
			}
			j.val = val
		}
		ctl.occupy(ctl.p.DirCycles, j.flush)
	}
	j.flush = func() {
		ctl := j.c
		e := ctl.entryOf(j.block)
		ctl.mem.WriteWord(j.addr, j.val)
		for it := e.sharers.iter(); ; {
			i, cpu, ok := it.next()
			if !ok {
				break
			}
			ctl.stats.WordUpdates++
			ctl.sendStaggered(i, network.Msg{
				Kind:      network.KindWordUpdate,
				Src:       network.Hub(ctl.p.Node),
				Dst:       ctl.cpuEndpoint(cpu),
				Addr:      j.addr,
				Value:     j.val,
				DataBytes: memsys.WordBytes,
			})
		}
		done := j.done
		ctl.releaseFine(j)
		ctl.complete(e)
		if done != nil {
			done()
		}
	}
	return j
}

func (c *Controller) releaseFine(j *fineJob) {
	j.block, j.addr, j.val, j.got, j.read, j.done = 0, 0, 0, nil, nil, nil
	c.fineFree = append(c.fineFree, j)
}

// Perturber injects protocol-legal pressure into the controller — the
// fault-injection hook used by internal/chaos. RequestDelay returns extra
// cycles to hold the CPU request m before it is submitted to its block's
// transaction queue, modeling a NACK-and-retry: the requester's message
// bounces once and comes back later. It is consulted exactly once per
// request (no unbounded re-delay) and only for GETS/GETX/UPGRADE —
// writebacks and acks resolve races and must never be held.
type Perturber interface {
	RequestDelay(m network.Msg) sim.Time
}

// New creates a directory controller for node p.Node. The AMU port may be
// set later with SetAMU (the AMU and directory reference each other).
func New(eng sim.Engine, net *network.Network, mem *memsys.Memory, p Params) *Controller {
	if p.ProcsPerNode <= 0 {
		panic("directory: ProcsPerNode must be positive")
	}
	if p.BlockBytes <= 0 || p.BlockBytes&(p.BlockBytes-1) != 0 {
		panic(fmt.Sprintf("directory: BlockBytes must be a power of two, got %d", p.BlockBytes))
	}
	return &Controller{
		eng:        eng,
		net:        net,
		pool:       net.DataPool(p.Node),
		mem:        mem,
		p:          p,
		blockShift: uint(bits.TrailingZeros(uint(p.BlockBytes))),
	}
}

// SetAMU installs the AMU recall port.
func (c *Controller) SetAMU(a AMUPort) { c.amu = a }

// SetPerturber installs a request-delay perturber (nil disables).
func (c *Controller) SetPerturber(p Perturber) { c.perturb = p }

// SetObserver installs fn, called at the completion of every transaction on
// this controller with the block address, while the new directory record is
// in place. Observers must be read-only: they run in event context between
// a transaction's final state update and the dispatch of the next queued
// one. internal/chaos attaches its SWMR/sharer-sync oracle here.
func (c *Controller) SetObserver(fn func(block uint64)) { c.observer = fn }

// Node returns the home node id.
func (c *Controller) Node() int { return c.p.Node }

// Stats returns the controller's named protocol counters: interventions
// sent, invalidations sent, fine-grained word updates pushed, and the
// pipeline/DRAM occupancy gauge.
func (c *Controller) Stats() metrics.DirectoryStats { return c.stats }

// occupy charges cycles of directory pipeline (and DRAM) occupancy before
// running job: the utilization gauge counterpart of every Schedule-based
// latency charge.
func (c *Controller) occupy(cycles uint64, job func()) {
	c.stats.OccupancyCycles += cycles
	c.eng.Schedule(sim.Time(cycles), job)
}

// occupyStep charges cycles of occupancy like occupy, then runs step s of
// e's transaction. The event carries only the entry, so it never allocates.
func (c *Controller) occupyStep(e *entry, cycles uint64, s step) {
	c.stats.OccupancyCycles += cycles
	e.txn.next = s
	c.eng.ScheduleCall(sim.Time(cycles), runNextStep, e)
}

// runNextStep is the event body of occupyStep.
func runNextStep(arg any) {
	e := arg.(*entry)
	s := e.txn.next
	e.txn.next = stepNone
	e.c.step(e, s)
}

// Entry slabs start small, so a controller whose node homes a handful of
// blocks stays small, and double up to a cap.
const (
	minSlabEntries = 4
	maxSlabEntries = 256
	// exactSlots is the sharer-list capacity each entry is carved with.
	exactSlots = 2
)

// slot returns the table index of block, panicking on a block homed at
// another node (its offset would alias one of this node's blocks).
func (c *Controller) slot(block uint64) int {
	if n := memsys.HomeNode(block); n != c.p.Node {
		panic(fmt.Sprintf("directory: block %#x is homed at node %d, not node %d", block, n, c.p.Node))
	}
	return int(block & (1<<memsys.NodeShift - 1) >> c.blockShift)
}

// lookup returns the entry for block, or nil when nobody has touched it.
// It never creates one: the read-only accessors use it.
func (c *Controller) lookup(block uint64) *entry {
	if i := c.slot(block); i < len(c.table) {
		return c.table[i]
	}
	return nil
}

// entryOf returns the entry for block, creating it on first touch.
func (c *Controller) entryOf(block uint64) *entry {
	i := c.slot(block)
	if i < len(c.table) {
		if e := c.table[i]; e != nil {
			return e
		}
	} else {
		grown := make([]*entry, max(i+1, 2*len(c.table)))
		copy(grown, c.table)
		c.table = grown
	}
	e := c.newEntry()
	e.block = block
	c.table[i] = e
	return e
}

// newEntry carves a fresh entry from the current slab, starting a larger
// slab, with a sharer-list run of its own, when it is full.
func (c *Controller) newEntry() *entry {
	if len(c.slab) == cap(c.slab) {
		n := min(max(2*cap(c.slab), minSlabEntries), maxSlabEntries)
		c.slab = make([]entry, 0, n)
		c.exactRun = make([]int, n*exactSlots)
	}
	c.slab = c.slab[:len(c.slab)+1]
	e := &c.slab[len(c.slab)-1]
	e.c = c
	e.sharers.procs = c.p.Procs
	e.sharers.exact, c.exactRun = c.exactRun[:0:exactSlots], c.exactRun[exactSlots:]
	return e
}

func (c *Controller) block(addr uint64) uint64 {
	return memsys.BlockAddr(addr, c.p.BlockBytes)
}

func (c *Controller) cpuEndpoint(cpu int) network.Endpoint {
	return network.Endpoint{Node: cpu / c.p.ProcsPerNode, CPU: cpu}
}

// Handle processes one directory-protocol message. It runs in event context.
func (c *Controller) Handle(m network.Msg) {
	block := c.block(m.Addr)
	e := c.entryOf(block)
	switch m.Kind {
	case network.KindWriteback:
		// Never blocked: resolves eviction/intervention races.
		c.applyWriteback(e, m)
	case network.KindInvalidateAck:
		c.applyInvAck(e)
	case network.KindInterventionAck:
		c.applyIvnAck(e, m)
	case network.KindGetShared, network.KindGetExclusive, network.KindUpgrade:
		r := c.acquireReq()
		r.block, r.m = block, m
		if c.perturb != nil {
			if d := c.perturb.RequestDelay(m); d > 0 {
				c.eng.Schedule(d, r.delayed)
				return
			}
		}
		c.submit(block, r.run)
	default:
		panic(fmt.Sprintf("directory: unexpected message %v", m))
	}
}

// submit runs job now if the block is idle, otherwise queues it.
func (c *Controller) submit(block uint64, job func()) {
	e := c.entryOf(block)
	if e.busy {
		e.waitq = append(e.waitq, job)
		return
	}
	e.busy = true
	job()
}

// complete ends the current transaction on e and starts the next queued
// one, if any, after the directory's per-transaction occupancy charge.
// The charge matters beyond fidelity: it gives each exclusive grantee a few
// cycles of guaranteed residence before the next queued request's
// intervention can be dispatched, which is what lets an LL/SC pair commit
// under a full request queue instead of livelocking.
func (c *Controller) complete(e *entry) {
	if !e.busy {
		panic("directory: complete on idle block")
	}
	e.txn = txn{}
	if c.observer != nil {
		c.observer(e.block)
	}
	if e.waitHead == len(e.waitq) {
		e.busy = false
		e.waitq = e.waitq[:0]
		e.waitHead = 0
		return
	}
	next := e.waitq[e.waitHead]
	e.waitq[e.waitHead] = nil
	e.waitHead++
	if e.waitHead == len(e.waitq) {
		e.waitq = e.waitq[:0]
		e.waitHead = 0
	}
	c.occupy(c.p.DirCycles, next)
}

// recallAMU flushes AMU-held words of e's block into memory so that memory
// is current before the directory supplies data or grants exclusivity.
func (c *Controller) recallAMU(e *entry) {
	if len(e.amuWords) == 0 {
		return
	}
	if c.amu == nil {
		panic("directory: AMU words held but no AMU port")
	}
	c.amu.Recall(e.block)
	clear(e.amuWords)
}

// processRequest starts a CPU-originated transaction. The block is busy.
func (c *Controller) processRequest(block uint64, m network.Msg) {
	e := c.entryOf(block)
	e.txn.req = m.Src
	switch m.Kind {
	case network.KindGetShared:
		switch e.state {
		case unowned, shared:
			// No AMU recall here: shared readers may observe the last
			// fine-put value from memory while the AMU holds a newer one —
			// the paper's release-consistency semantics for AMO variables
			// (§3.2). Recalling on reads would also cancel queued fine-puts
			// without invalidating sharers, losing their wake-up.
			c.replyData(e, network.KindDataShared, stepSharedGrant)
		case exclusive:
			c.intervene(e, false /*downgrade*/, stepDowngraded)
		}
	case network.KindGetExclusive:
		c.grantExclusive(e)
	case network.KindUpgrade:
		if e.state == shared && len(e.amuWords) == 0 {
			// A data-less grant is only safe when no word of the block is
			// AMU-held: sharers may be stale with respect to the AMU's value
			// (release consistency), so a block with AMU words must be
			// recalled and re-supplied as a full GETX.
			if e.hasSharer(m.Src.CPU) {
				// True upgrade: invalidate other sharers, grant without data.
				c.recallAMU(e)
				e.removeSharer(m.Src.CPU)
				c.invalidateSharers(e, stepUpgradeAck)
				return
			}
		}
		// Requester lost its copy while the upgrade was in flight (or the
		// block moved to exclusive): treat as a full GETX.
		c.grantExclusive(e)
	default:
		panic(fmt.Sprintf("directory: processRequest on non-request %v", m))
	}
}

// grantExclusive implements GETX (and upgrade-turned-GETX).
func (c *Controller) grantExclusive(e *entry) {
	switch e.state {
	case unowned:
		c.recallAMU(e)
		c.replyData(e, network.KindDataExclusive, stepExclusiveGrant)
	case shared:
		c.recallAMU(e)
		e.removeSharer(e.txn.req.CPU)
		c.invalidateSharers(e, stepReplyExclusive)
	case exclusive:
		if e.owner == e.txn.req.CPU {
			// Owner re-requesting after its own writeback raced this GETX.
			c.replyData(e, network.KindDataExclusive, stepComplete)
			return
		}
		c.intervene(e, true /*invalidate*/, stepReplyExclusive)
	}
}

// step runs continuation s of e's transaction.
func (c *Controller) step(e *entry, s step) {
	t := &e.txn
	switch s {
	case stepComplete:
		c.complete(e)
	case stepSendReply:
		// The payload rides a pooled buffer that the network recycles
		// after delivery.
		words := c.pool.AcquireData(c.p.BlockBytes / memsys.WordBytes)
		c.mem.ReadBlockInto(e.block, words)
		c.send(network.Msg{
			Kind: t.reply,
			Src:  network.Hub(c.p.Node), Dst: t.req,
			Addr:      e.block,
			DataBytes: c.p.BlockBytes,
			Data:      words,
			DataOwned: true,
		})
		c.step(e, t.afterReply)
	case stepSharedGrant:
		e.state = shared
		e.addSharer(t.req.CPU)
		c.complete(e)
	case stepExclusiveGrant:
		// The sharer vector is already empty: unowned and exclusive blocks
		// keep none, and invalidateSharers empties a shared block's.
		e.state = exclusive
		e.owner = t.req.CPU
		e.clearSharers()
		c.complete(e)
	case stepUpgradeAck:
		c.send(network.Msg{
			Kind: network.KindAckExclusive,
			Src:  network.Hub(c.p.Node), Dst: t.req,
			Addr: e.block,
		})
		c.step(e, stepExclusiveGrant)
	case stepReplyExclusive:
		c.replyData(e, network.KindDataExclusive, stepExclusiveGrant)
	case stepDowngraded:
		// A stale ack means the owner's writeback raced ahead: its copy is
		// gone (and e.owner was cleared when the writeback was applied), so
		// only the requester becomes a sharer. Recording the departed owner
		// here would create a phantom sharer that could later be granted a
		// data-less upgrade for a line it no longer holds.
		e.clearSharers()
		e.addSharer(t.req.CPU)
		if !t.stale {
			e.addSharer(e.owner)
		}
		e.state = shared
		c.replyData(e, network.KindDataShared, stepComplete)
	case stepFineDowngraded:
		// As with a GETS intervention, a stale ack means the owner already
		// wrote back and keeps no copy: record no sharer.
		if !t.stale {
			e.state = shared
			e.clearSharers()
			e.addSharer(e.owner)
		}
		c.step(e, stepFineFinish)
	case stepFineFinish:
		addr, got := t.addr, t.got
		if e.amuWords == nil {
			e.amuWords = make(map[uint64]bool)
		}
		e.amuWords[addr] = true
		val := c.mem.ReadWord(addr)
		c.complete(e)
		got(val)
	default:
		panic(fmt.Sprintf("directory: bad transaction step %d", s))
	}
}

// replyData reads the block from memory (charging directory + DRAM latency)
// and sends it to the requester as kind, then runs step then.
func (c *Controller) replyData(e *entry, kind network.Kind, then step) {
	e.txn.reply, e.txn.afterReply = kind, then
	c.occupyStep(e, c.p.DirCycles+c.p.DRAMCycles, stepSendReply)
}

// invalidateSharers sends INV to every current sharer, then runs step then
// once all acks arrive. With no sharers it runs then immediately (after the
// directory occupancy charge).
func (c *Controller) invalidateSharers(e *entry, then step) {
	n := e.sharers.count()
	if n == 0 {
		c.occupyStep(e, c.p.DirCycles, then)
		return
	}
	e.txn.waitingAcks, e.txn.afterAcks = n, then
	for it := e.sharers.iter(); ; {
		i, cpu, ok := it.next()
		if !ok {
			break
		}
		c.stats.Invalidations++
		m := network.Msg{
			Kind: network.KindInvalidate,
			Src:  network.Hub(c.p.Node), Dst: c.cpuEndpoint(cpu),
			Addr: e.block,
		}
		c.sendStaggered(i, m)
	}
	e.clearSharers()
}

// sendStaggered injects the i-th message of a fan-out burst after
// i*InjectCycles, modeling the hub's single network port. With
// MulticastUpdates, word-update bursts leave as one injection.
func (c *Controller) sendStaggered(i int, m network.Msg) {
	if c.p.MulticastUpdates && m.Kind == network.KindWordUpdate {
		i = 0
	}
	c.net.SendAfter(sim.Time(uint64(i)*c.p.InjectCycles), m)
}

// sortedWords returns the AMU-held word addresses of the block in ascending
// order, for deterministic recall and introspection.
func sortedWords(e *entry) []uint64 {
	out := make([]uint64, 0, len(e.amuWords))
	for w := range e.amuWords { //lint:order-independent (keys sorted below)
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Controller) applyInvAck(e *entry) {
	if e.txn.waitingAcks == 0 {
		panic("directory: unexpected invalidation ack")
	}
	e.txn.waitingAcks--
	if e.txn.waitingAcks == 0 {
		then := e.txn.afterAcks
		e.txn.afterAcks = stepNone
		c.step(e, then)
	}
}

// intervene sends an intervention to the exclusive owner. If invalidate is
// true the owner drops the block, otherwise it downgrades to Shared. When
// the ack arrives, memory is updated from the owner's data (unless the
// owner had already written back, in which case the out-of-band writeback
// made memory current), txn.stale records whether the owner still held
// the block, and step then runs. On a stale ack the former owner retains
// no copy — continuations must not record it as a sharer (and e.owner has
// already been cleared by the raced writeback).
func (c *Controller) intervene(e *entry, invalidate bool, then step) {
	c.stats.Interventions++
	e.txn.afterIvn = then
	flags := uint32(0)
	if invalidate {
		flags = IvnInvalidate
	}
	c.send(network.Msg{
		Kind:  network.KindIntervention,
		Src:   network.Hub(c.p.Node),
		Dst:   c.cpuEndpoint(e.owner),
		Addr:  e.block,
		Flags: flags,
	})
}

// Intervention flag bits.
const (
	// IvnInvalidate asks the owner to drop the block rather than downgrade.
	IvnInvalidate uint32 = 1 << iota
	// IvnAckStale marks an intervention ack from an owner that no longer
	// held the block (writeback raced ahead).
	IvnAckStale
)

func (c *Controller) applyIvnAck(e *entry, m network.Msg) {
	then := e.txn.afterIvn
	if then == stepNone {
		panic("directory: unexpected intervention ack")
	}
	e.txn.afterIvn = stepNone
	e.txn.stale = m.Flags&IvnAckStale != 0
	if !e.txn.stale {
		c.mem.WriteBlock(e.block, m.Data)
	}
	c.step(e, then)
}

func (c *Controller) applyWriteback(e *entry, m network.Msg) {
	block := c.block(m.Addr)
	if e.state == exclusive && e.owner == m.Src.CPU {
		c.mem.WriteBlock(block, m.Data)
		e.state = unowned
		e.owner = 0
		return
	}
	// Stale writeback: the owner was already downgraded or invalidated by an
	// intervention that raced past the writeback; the intervention path
	// carried the same (or newer) data, so drop this one.
}

// --- fine-grained get/put (AMU side) -------------------------------------

// FineGet asks for the coherent value of the word at addr on behalf of the
// local AMU. The AMU becomes a word-granularity sharer. done receives the
// value. May queue behind an in-flight transaction.
func (c *Controller) FineGet(addr uint64, done func(val uint64)) {
	j := c.acquireFine()
	j.block, j.addr, j.got = c.block(addr), addr, done
	c.submit(j.block, j.start)
}

// fineGet starts a fine get on e, whose txn carries the word and callback.
func (c *Controller) fineGet(e *entry) {
	switch e.state {
	case unowned, shared:
		c.occupyStep(e, c.p.DirCycles+c.p.DRAMCycles, stepFineFinish)
	case exclusive:
		c.intervene(e, false, stepFineDowngraded)
	}
}

// FinePut flushes the AMU's current value of the word at addr: memory is
// updated and a word update is pushed to every CPU caching the block. The
// value is read from the AMU at execution time via read; if the AMU no
// longer holds the word (a recall raced ahead), the put is a no-op — the
// recall already flushed, and the recalling transaction's invalidations
// supersede the updates. done runs when the put has been processed.
func (c *Controller) FinePut(addr uint64, read func() (uint64, bool), done func()) {
	j := c.acquireFine()
	j.block, j.addr, j.read, j.done = c.block(addr), addr, read, done
	c.submit(j.block, j.start)
}

// FineDrop records that the AMU evicted its copy of the word at addr after
// flushing it to memory itself (capacity eviction, not recall).
func (c *Controller) FineDrop(addr uint64) {
	e := c.entryOf(c.block(addr))
	delete(e.amuWords, addr)
}

// FineEvict handles an AMU capacity eviction of a coherent word: the final
// value is written to memory and pushed to sharers exactly like a fine put,
// so spinners waiting on that word are not left holding a stale copy with
// no wake-up coming. The AMU has already dropped its entry; val is the
// evicted value.
func (c *Controller) FineEvict(addr, val uint64) {
	block := c.block(addr)
	e := c.entryOf(block)
	delete(e.amuWords, addr)
	j := c.acquireFine()
	j.block, j.addr, j.val = block, addr, val
	c.submit(block, j.start)
}

// AMUHolds reports whether the AMU is registered for the word at addr.
func (c *Controller) AMUHolds(addr uint64) bool {
	e := c.lookup(c.block(addr))
	return e != nil && e.amuWords[addr]
}

// Snapshot describes a block's directory record for invariant checking.
type Snapshot struct {
	State    string // "U", "S" or "E"
	Owner    int
	Sharers  []int
	AMUWords []uint64
	Busy     bool
}

// SnapshotOf returns the directory record for the block containing addr;
// a block nobody has touched reads as unowned. It creates no record.
func (c *Controller) SnapshotOf(addr uint64) Snapshot {
	e := c.lookup(c.block(addr))
	if e == nil {
		e = &entry{}
	}
	s := Snapshot{State: e.state.String(), Owner: e.owner, Busy: e.busy}
	s.Sharers = e.sharers.slice()
	s.AMUWords = sortedWords(e)
	return s
}

// Blocks returns every block address this controller has a record for, in
// ascending order.
func (c *Controller) Blocks() []uint64 {
	out := []uint64{}
	for _, e := range c.table {
		if e != nil {
			out = append(out, e.block)
		}
	}
	return out
}

// Sharers returns the CPUs currently recorded as sharing the block at addr,
// in ascending order (for tests and introspection).
func (c *Controller) Sharers(addr uint64) []int {
	e := c.lookup(c.block(addr))
	if e == nil {
		return []int{}
	}
	return e.sharers.slice()
}

func (c *Controller) send(m network.Msg) { c.net.Send(m) }
