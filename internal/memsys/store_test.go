package memsys

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// TestStoreMatchesMapOracle drives the dense store with a random mix of
// allocations, word and block writes, and word and block reads across
// nodes — including never-written words and addresses past the end of
// every bank — and checks every read, and the access counters, against a
// plain map model of memory.
func TestStoreMatchesMapOracle(t *testing.T) {
	const nodes, bb = 3, 128
	const blockWords = bb / WordBytes
	rng := rand.New(rand.NewPCG(1, 2))
	m := New(nodes, bb, 60)
	oracle := make(map[uint64]uint64)
	var reads, writes uint64
	var allocs []uint64 // word addresses handed out by Alloc

	// addr picks a word address: mostly allocated words, otherwise any
	// word in the first 64 KiB of a node, allocated or not.
	addr := func() uint64 {
		if len(allocs) > 0 && rng.IntN(4) != 0 {
			return allocs[rng.IntN(len(allocs))]
		}
		return NodeBase(rng.IntN(nodes)) + uint64(rng.IntN(1<<16/WordBytes))*WordBytes
	}
	block := make([]uint64, blockWords)
	for op := 0; op < 20000; op++ {
		switch rng.IntN(7) {
		case 0:
			size := WordBytes * (1 + rng.IntN(64))
			a := m.Alloc(rng.IntN(nodes), size, WordBytes<<rng.IntN(5))
			for w := 0; w < size; w += WordBytes {
				allocs = append(allocs, a+uint64(w))
			}
		case 1:
			a := m.AllocWord(rng.IntN(nodes))
			if a%bb != 0 {
				t.Fatalf("AllocWord returned unaligned %#x", a)
			}
			allocs = append(allocs, a)
		case 2:
			a, v := addr(), rng.Uint64()
			m.WriteWord(a, v)
			oracle[a] = v
			writes++
		case 3:
			base := BlockAddr(addr(), bb)
			for i := range block {
				block[i] = rng.Uint64()
				oracle[base+uint64(i*WordBytes)] = block[i]
			}
			m.WriteBlock(base, block)
			writes++
		case 4:
			a := addr()
			if got, want := m.ReadWord(a), oracle[a]; got != want {
				t.Fatalf("op %d: ReadWord(%#x) = %d, want %d", op, a, got, want)
			}
			reads++
		case 5, 6:
			a := addr()
			peek := rng.IntN(2) == 0
			if peek {
				m.PeekBlock(a, block)
			} else {
				m.ReadBlockInto(a, block)
				reads++
			}
			base := BlockAddr(a, bb)
			for i, got := range block {
				if want := oracle[base+uint64(i*WordBytes)]; got != want {
					t.Fatalf("op %d: block %#x word %d = %d, want %d (peek %v)", op, base, i, got, want, peek)
				}
			}
		}
	}
	if st := m.Stats(); st.Reads != reads || st.Writes != writes {
		t.Fatalf("Stats = %d reads, %d writes; want %d, %d", st.Reads, st.Writes, reads, writes)
	}
	// Far past the end of every bank: still zero, and no growth from reads.
	for n := 0; n < nodes; n++ {
		size := len(m.banks[n].words)
		far := NodeBase(n) + 1<<NodeShift - bb
		if m.ReadWord(far) != 0 {
			t.Fatalf("node %d: far word not zero", n)
		}
		m.ReadBlockInto(far, block)
		for i, w := range block {
			if w != 0 {
				t.Fatalf("node %d: far block word %d = %d", n, i, w)
			}
		}
		if got := len(m.banks[n].words); got != size {
			t.Fatalf("node %d: store grew from %d to %d words on reads", n, size, got)
		}
	}
}

// TestAllocOverflowPanics: an allocation that does not fit in the node's
// 2^NodeShift-byte window panics, naming the node and size, instead of
// returning addresses homed at the next node.
func TestAllocOverflowPanics(t *testing.T) {
	m := New(2, 128, 60)
	if a := m.Alloc(0, 1<<(NodeShift-1), 8); a != NodeBase(0) {
		t.Fatalf("first half at %#x", a)
	}
	last := m.Alloc(0, 1<<(NodeShift-1)-WordBytes, 8)
	if HomeNode(last) != 0 {
		t.Fatalf("allocation left node 0: %#x", last)
	}
	end := m.Alloc(0, WordBytes, WordBytes) // the window's last word
	if HomeNode(end) != 0 || end != NodeBase(1)-WordBytes {
		t.Fatalf("last word at %#x, want %#x", end, NodeBase(1)-WordBytes)
	}
	m.Alloc(1, WordBytes, WordBytes)
	for _, f := range []func(){
		func() { m.Alloc(0, WordBytes, WordBytes) }, // window full
		func() { m.Alloc(1, 1<<NodeShift, WordBytes) },
		func() { m.Alloc(1, 1<<NodeShift-2*WordBytes, 1<<(NodeShift-1)) }, // fits only unaligned
	} {
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "overflows") || !strings.Contains(msg, "node") {
					t.Errorf("panic = %v, want an overflow naming the node", r)
				}
			}()
			f()
		}()
	}
	if a := m.AllocWord(1); HomeNode(a) != 1 {
		t.Fatalf("node 1 allocation after failed ones homed at %d", HomeNode(a))
	}
}
