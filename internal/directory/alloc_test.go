package directory

import (
	"testing"

	"amosim/internal/memsys"
	"amosim/internal/network"
	"amosim/internal/sim"
	"amosim/internal/topology"
)

// ackCPU is a cache-side endpoint that answers invalidations and
// interventions (with the data in dirty) and records nothing, so that a
// transaction's allocations are the directory's alone.
type ackCPU struct {
	id    int
	net   *network.Network
	dirty []uint64
}

func (a *ackCPU) handle(m network.Msg) {
	src := network.Endpoint{Node: a.id / 2, CPU: a.id}
	switch m.Kind {
	case network.KindInvalidate:
		a.net.Send(network.Msg{Kind: network.KindInvalidateAck, Src: src, Dst: m.Src, Addr: m.Addr})
	case network.KindIntervention:
		a.net.Send(network.Msg{
			Kind: network.KindInterventionAck, Src: src, Dst: m.Src, Addr: m.Addr,
			Data: a.dirty, DataBytes: len(a.dirty) * memsys.WordBytes,
		})
	}
}

// TestDirectoryTransactionSteadyStateZeroAlloc: once a block's entry, its
// sharer vector, the message pools and the event arena have warmed up,
// every kind of directory transaction allocates nothing.
func TestDirectoryTransactionSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	topo, err := topology.NewFatTree(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(eng, topo, network.Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	mem := memsys.New(4, 128, 60)
	ctrl := New(eng, net, mem, Params{Node: 0, ProcsPerNode: 2, Procs: 4, BlockBytes: 128, DirCycles: 8, DRAMCycles: 60, InjectCycles: 4})
	net.RegisterHub(0, ctrl.Handle)
	dirty := make([]uint64, 16)
	for i := 0; i < 4; i++ {
		c := &ackCPU{id: i, net: net, dirty: dirty}
		net.RegisterCPU(i, c.handle)
	}
	addr := mem.AllocWord(0)
	send := func(cpu int, kind network.Kind) {
		m := network.Msg{Kind: kind, Src: network.Endpoint{Node: cpu / 2, CPU: cpu}, Dst: network.Hub(0), Addr: addr}
		if kind == network.KindWriteback {
			m.Data, m.DataBytes = dirty, len(dirty)*memsys.WordBytes
		}
		net.Send(m)
	}
	run := func() {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	got := func(uint64) {}
	read := func() (uint64, bool) { return 7, true }
	putDone := func() {}

	// Every case starts and ends with the block unowned and no AMU word.
	cases := []struct {
		name string
		txn  func()
	}{
		{"GETS from memory", func() {
			send(0, network.KindGetShared)
			send(1, network.KindGetShared)
			run()
			send(2, network.KindGetExclusive) // back to unowned via writeback
			run()
			send(2, network.KindWriteback)
			run()
		}},
		{"GETX with invalidations", func() {
			send(0, network.KindGetShared)
			send(1, network.KindGetShared)
			send(3, network.KindGetShared)
			run()
			send(2, network.KindGetExclusive)
			run()
			send(2, network.KindWriteback)
			run()
		}},
		{"true upgrade", func() {
			send(0, network.KindGetShared)
			send(1, network.KindGetShared)
			run()
			send(1, network.KindUpgrade)
			run()
			send(1, network.KindWriteback)
			run()
		}},
		{"downgrade and invalidate interventions", func() {
			send(0, network.KindGetExclusive)
			run()
			send(1, network.KindGetExclusive) // invalidating intervention on 0
			run()
			send(0, network.KindGetShared) // downgrading intervention on 1
			run()
			send(1, network.KindGetExclusive) // invalidates 0, 1 owns
			run()
			send(1, network.KindWriteback)
			run()
		}},
		{"FinePut", func() {
			send(0, network.KindGetShared)
			send(1, network.KindGetShared)
			ctrl.FineGet(addr, got)
			run()
			ctrl.FinePut(addr, read, putDone)
			run()
			ctrl.FinePut(addr, read, putDone)
			run()
			send(2, network.KindGetExclusive) // recalls the AMU word
			run()
			send(2, network.KindWriteback)
			run()
		}},
	}
	ctrl.SetAMU(nopAMU{})
	for _, tc := range cases {
		tc.txn() // warm up
		if allocs := testing.AllocsPerRun(50, tc.txn); allocs != 0 {
			t.Errorf("%s: steady state allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
	if st := ctrl.SnapshotOf(addr); st.State != "U" || len(st.AMUWords) != 0 || st.Busy {
		t.Fatalf("cases left the block at %+v, want unowned and idle", st)
	}
}

// nopAMU accepts recalls.
type nopAMU struct{}

func (nopAMU) Recall(uint64) {}

// TestBlocksListsTouchedBlocksInOrder: Blocks is ascending and lists
// exactly the blocks a transaction touched. The read-only accessors create
// no record, and a block homed at another node panics instead of aliasing
// one of this node's slots.
func TestBlocksListsTouchedBlocksInOrder(t *testing.T) {
	r := newRig(t, 2)
	var addrs []uint64
	for i := 0; i < 40; i++ {
		addrs = append(addrs, r.mem.AllocWord(0))
	}
	var want []uint64
	for _, i := range []int{33, 2, 17, 0, 39, 5} {
		r.request(i%2, network.KindGetShared, addrs[i])
	}
	r.ctrl.FineGet(addrs[21], func(uint64) {})
	r.run(t)
	for _, i := range []int{0, 2, 5, 17, 21, 33, 39} {
		want = append(want, addrs[i])
	}
	for _, i := range []int{1, 20, 38} {
		r.ctrl.SnapshotOf(addrs[i])
		r.ctrl.Sharers(addrs[i])
		r.ctrl.AMUHolds(addrs[i])
	}
	r.ctrl.SnapshotOf(addrs[39] + 1<<20) // far past every touched block
	got := r.ctrl.Blocks()
	if len(got) != len(want) {
		t.Fatalf("Blocks = %#x, want %#x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocks = %#x, want %#x", got, want)
		}
	}
	if s := r.ctrl.SnapshotOf(addrs[1]); s.State != "U" || len(s.Sharers) != 0 || s.Busy {
		t.Fatalf("untouched block snapshot = %+v, want unowned", s)
	}

	foreign := r.mem.AllocWord(1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"SnapshotOf", func() { r.ctrl.SnapshotOf(foreign) }},
		{"FineGet", func() { r.ctrl.FineGet(foreign, func(uint64) {}) }},
		{"Handle", func() {
			r.ctrl.Handle(network.Msg{Kind: network.KindGetShared, Src: network.Endpoint{CPU: 0}, Addr: foreign})
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a block homed at node 1 did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}
