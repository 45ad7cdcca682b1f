// Package memsys models the physical memory of the simulated machine: a
// global physical address space statically partitioned across nodes (the
// home of an address is encoded in its high bits, as in Origin-style
// CC-NUMA machines), a per-node bump allocator, and a dense per-node
// backing word store with a fixed DRAM access latency.
//
// Each node's store is one []uint64 indexed by the word offset of an
// address within the node's window. It grows geometrically on the first
// write past its end and is never shrunk; reads past the end return zero.
// Because AllocWord places every word in a block of its own, a run of
// AllocWord results costs one block (16 words at 128 B) of store per word.
package memsys

import (
	"fmt"

	"amosim/internal/metrics"
)

// NodeShift positions the home-node id in bits [NodeShift, 64). Each node
// therefore owns a 2^NodeShift-byte slice of the physical address space.
const NodeShift = 32

// WordBytes is the machine word size. All synchronization variables are one
// word.
const WordBytes = 8

// HomeNode returns the node owning addr.
func HomeNode(addr uint64) int { return int(addr >> NodeShift) }

// NodeBase returns the first physical address owned by node n.
func NodeBase(n int) uint64 { return uint64(n) << NodeShift }

// BlockAddr returns the base address of the coherence block containing addr.
func BlockAddr(addr uint64, blockBytes int) uint64 {
	return addr &^ (uint64(blockBytes) - 1)
}

// WordIndex returns the word offset of addr within its block.
func WordIndex(addr uint64, blockBytes int) int {
	return int(addr&(uint64(blockBytes)-1)) / WordBytes
}

// Memory is the machine-wide backing store plus per-node allocation state.
// Reads of never-written addresses return zero, like zeroed DRAM.
//
// The store and access counters are banked per home node: an address is
// only ever read or written by its home node's components (directory, AMU,
// sync engine, memory agent), so on the parallel kernel each bank is
// touched by exactly one shard and the store needs no locking.
type Memory struct {
	banks      []bank
	nextFree   []uint64 // per-node bump pointer (offset within node)
	blockBytes int
	dramCycles uint64
}

// bank is one node's slice of physical memory.
type bank struct {
	words  []uint64 // indexed by wordOffset; never-written tail reads as zero
	reads  uint64
	writes uint64
}

// nodeMask selects the offset of an address within its home node's window.
const nodeMask = 1<<NodeShift - 1

// minBankWords is the first allocation of a bank's store: two blocks'
// worth at the default 128-byte block size.
const minBankWords = 32

// wordOffset returns the index of addr's word in its home bank.
func wordOffset(addr uint64) int { return int(addr & nodeMask / WordBytes) }

// span returns the store words [i, i+n), growing the store to hold them.
func (b *bank) span(i, n int) []uint64 {
	if need := i + n; need > len(b.words) {
		size := max(need, 2*len(b.words), minBankWords)
		grown := make([]uint64, size)
		copy(grown, b.words)
		b.words = grown
	}
	return b.words[i : i+n]
}

// New creates a Memory for nodes nodes with the given coherence block size
// and DRAM latency (in CPU cycles).
func New(nodes, blockBytes int, dramCycles uint64) *Memory {
	if nodes <= 0 {
		panic(fmt.Sprintf("memsys: nodes must be positive, got %d", nodes))
	}
	if blockBytes <= 0 || blockBytes%WordBytes != 0 {
		panic(fmt.Sprintf("memsys: bad block size %d", blockBytes))
	}
	m := &Memory{
		banks:      make([]bank, nodes),
		nextFree:   make([]uint64, nodes),
		blockBytes: blockBytes,
		dramCycles: dramCycles,
	}
	return m
}

// DRAMCycles returns the per-access DRAM latency.
func (m *Memory) DRAMCycles() uint64 { return m.dramCycles }

// Alloc reserves size bytes on node home's memory, aligned to align bytes
// (align must be a power of two >= WordBytes), and returns the base address.
// It panics when the node's 2^NodeShift-byte window cannot hold the
// allocation: the address would otherwise be homed at the next node.
func (m *Memory) Alloc(home int, size, align int) uint64 {
	if home < 0 || home >= len(m.nextFree) {
		panic(fmt.Sprintf("memsys: Alloc on node %d of %d", home, len(m.nextFree)))
	}
	if align < WordBytes || align&(align-1) != 0 {
		panic(fmt.Sprintf("memsys: bad alignment %d", align))
	}
	if size <= 0 {
		panic(fmt.Sprintf("memsys: bad size %d", size))
	}
	off := m.nextFree[home]
	a := uint64(align)
	off = (off + a - 1) &^ (a - 1)
	if off > 1<<NodeShift || uint64(size) > 1<<NodeShift-off {
		panic(fmt.Sprintf("memsys: Alloc of %d bytes on node %d overflows its %d-byte window (%d bytes in use)",
			size, home, uint64(1)<<NodeShift, m.nextFree[home]))
	}
	m.nextFree[home] = off + uint64(size)
	return NodeBase(home) + off
}

// AllocWord reserves one block-aligned word on node home, so that distinct
// AllocWord results never share a coherence block (the placement discipline
// the paper's "optimized" codings require).
func (m *Memory) AllocWord(home int) uint64 {
	return m.Alloc(home, WordBytes, m.blockBytes)
}

// bank returns the home bank of addr.
func (m *Memory) bank(addr uint64) *bank {
	n := HomeNode(addr)
	if n < 0 || n >= len(m.banks) {
		panic(fmt.Sprintf("memsys: address %#x has no home (node %d of %d)", addr, n, len(m.banks)))
	}
	return &m.banks[n]
}

// ReadWord returns the word at the word-aligned address addr.
func (m *Memory) ReadWord(addr uint64) uint64 {
	m.checkAligned(addr)
	b := m.bank(addr)
	b.reads++
	if i := wordOffset(addr); i < len(b.words) {
		return b.words[i]
	}
	return 0
}

// WriteWord stores val at the word-aligned address addr.
func (m *Memory) WriteWord(addr, val uint64) {
	m.checkAligned(addr)
	b := m.bank(addr)
	b.writes++
	b.span(wordOffset(addr), 1)[0] = val
}

// ReadBlock returns the words of the block containing addr.
func (m *Memory) ReadBlock(addr uint64) []uint64 {
	out := make([]uint64, m.blockBytes/WordBytes)
	m.ReadBlockInto(addr, out)
	return out
}

// ReadBlockInto reads the words of the block containing addr into out,
// which must hold exactly one block. It is the allocation-free form of
// ReadBlock for callers that bring their own (typically pooled) buffer.
func (m *Memory) ReadBlockInto(addr uint64, out []uint64) {
	m.PeekBlock(addr, out)
	m.bank(addr).reads++
}

// PeekBlock reads the block containing addr into out like ReadBlockInto,
// but counts no DRAM read: it is for checkers that inspect memory at
// quiescence and must not show up in the machine's own counters.
func (m *Memory) PeekBlock(addr uint64, out []uint64) {
	base := BlockAddr(addr, m.blockBytes)
	if n := m.blockBytes / WordBytes; len(out) != n {
		panic(fmt.Sprintf("memsys: block read into %d words, want %d", len(out), n))
	}
	b, n := m.bank(base), 0
	if i := wordOffset(base); i < len(b.words) {
		n = copy(out, b.words[i:])
	}
	clear(out[n:]) // past the end of the store
}

// WriteBlock stores words (len = block words) at the block containing addr.
func (m *Memory) WriteBlock(addr uint64, words []uint64) {
	base := BlockAddr(addr, m.blockBytes)
	if len(words) != m.blockBytes/WordBytes {
		panic(fmt.Sprintf("memsys: WriteBlock with %d words, want %d", len(words), m.blockBytes/WordBytes))
	}
	b := m.bank(base)
	b.writes++
	copy(b.span(wordOffset(base), len(words)), words)
}

// Stats returns the cumulative DRAM read/write transaction counters,
// summed over banks in node order. Call only while the machine is
// quiescent (snapshots are taken between runs).
func (m *Memory) Stats() metrics.MemoryStats {
	var out metrics.MemoryStats
	for i := range m.banks {
		out.Reads += m.banks[i].reads
		out.Writes += m.banks[i].writes
	}
	return out
}

func (m *Memory) checkAligned(addr uint64) {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("memsys: unaligned word access %#x", addr))
	}
}
