// Package core implements CortenMM: a single-level-abstraction memory
// management system (§3). There is no VMA layer — the page table plus
// per-PTE metadata arrays are the only representation of the address
// space, and the transactional RCursor interface (Figure 4) is the only
// way to program the MMU.
//
// Two locking protocols are provided (§4.1): CortenMM_rw, which takes
// reader locks down the tree and a writer lock on the covering PT page
// (Figure 5), and CortenMM_adv, which traverses locklessly under RCU and
// then locks the covering PT page and its descendants, handling
// concurrent PT-page removal with stale marking and deferred free
// (Figures 6 and 7).
package core

import (
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// Protocol selects the locking protocol of §4.1.
type Protocol uint8

const (
	// ProtocolRW is CortenMM_rw: readers-writer locks down the tree.
	ProtocolRW Protocol = iota
	// ProtocolAdv is CortenMM_adv: RCU lockless traversal + MCS locks.
	ProtocolAdv
)

// String names the protocol.
func (p Protocol) String() string {
	if p == ProtocolAdv {
		return "adv"
	}
	return "rw"
}

// Options configures an address space.
type Options struct {
	// Machine is the simulated hardware this space runs on.
	Machine *cpusim.Machine
	// ISA selects the page-table format (default x86-64).
	ISA arch.ISA
	// Protocol selects CortenMM_rw or CortenMM_adv.
	Protocol Protocol
	// PerCoreVA enables the per-core virtual address allocator (§4.5).
	// Disabled it falls back to a single global arena — the adv_base
	// ablation of §6.4.
	PerCoreVA bool
	// CoarseLocking makes every transaction lock the root PT page,
	// degenerating the protocol into one global lock. Only for the
	// ablation benchmarks that quantify the value of covering-page
	// granularity.
	CoarseLocking bool
	// SwapDev is the block device used by SwapOut (optional).
	SwapDev *mem.BlockDev
}

// AddrSpace is one CortenMM address space. It implements mm.MM, the
// transactional interface via Lock, and mem.RMapTarget for reverse
// mapping.
type AddrSpace struct {
	m     *cpusim.Machine
	tree  *pt.Tree
	isa   arch.ISA
	asid  tlb.ASID
	proto Protocol

	valloc  cpusim.VAAlloc
	perCore bool
	coarse  bool
	swapDev *mem.BlockDev
	stats   mm.Stats

	// fileMu guards the non-MMU bookkeeping ("rest of the code" state,
	// §3.4: plain mutexes, no page-table access): file mappings used for
	// reverse mapping and the VA-range tracking behind Munmap recycling.
	fileMu   sync.Mutex
	fileMaps []fileMapping
	vaSizes  map[arch.Vaddr]uint64
	// fixedVAs marks tracked ranges that came from MmapFixed: their VAs
	// are not the allocator's, so Munmap must not recycle them into it.
	fixedVAs map[arch.Vaddr]bool

	// cursors is the per-core transaction-cursor cache (see Lock).
	cursors []cachedCursor

	// txDepth counts this space's open transactions per core. Direct
	// reclaim consults it to skip spaces the allocating goroutine
	// already holds PT-page locks in (MCS locks are not reentrant, so
	// re-locking from the same goroutine would self-deadlock).
	txDepth []txCounter
	// reclaim is the manager this space is registered with, or nil.
	reclaim *ReclaimManager
	// compaction is the CompactionManager this space is registered with,
	// or nil (set by CompactionManager.Register).
	compaction atomic.Pointer[CompactionManager]
	// migrants counts migration-hook invocations currently operating on
	// this space. Destroy spins it to zero after marking the space
	// destroyed, so the hook never locks a page-table tree mid-teardown.
	migrants atomic.Int32
	// oomKilled marks a space torn down by the OOM killer: allocating
	// syscalls fail fast with ErrOOMKilled, releases still work.
	oomKilled atomic.Bool
	// destroyed makes Destroy exactly-once (the ASID free must not
	// double) and lets the reclaim sweeps refuse a space whose tree has
	// already been torn down.
	destroyed atomic.Bool
	// reclaimClock is the clock hand of the per-space reclaim scan
	// (index into the sorted tracked ranges), guarded by fileMu.
	reclaimClock int

	// batch holds the async-batch pipeline's cumulative counters
	// (see batch.go).
	batch batchCounters
}

// txCounter is a cache-line padded per-core transaction counter.
type txCounter struct {
	n atomic.Int32
	_ [60]byte
}

// cachedCursor is one per-core cursor slot.
type cachedCursor struct {
	c    RCursor
	busy atomic.Bool
	_    [32]byte
}

// fileMapping records where a file range was mapped, so reverse mapping
// can translate a file page index into a virtual address. Entries are
// hints: consumers re-validate through the transactional interface.
type fileMapping struct {
	file   *mem.File
	va     arch.Vaddr
	pgoff  uint64
	npages uint64
	shared bool
}

// New creates an empty address space.
func New(o Options) (*AddrSpace, error) {
	if o.ISA == nil {
		o.ISA = arch.X8664{}
	}
	if o.Machine == nil {
		o.Machine = cpusim.New(cpusim.Config{})
	}
	tree, err := pt.NewTree(o.Machine.Phys, o.ISA, o.Machine.Cores, o.Protocol == ProtocolRW)
	if err != nil {
		return nil, err
	}
	var va cpusim.VAAlloc
	if o.PerCoreVA {
		va = cpusim.NewPerCoreVA(o.Machine.Cores)
	} else {
		va = cpusim.NewGlobalVA()
	}
	return &AddrSpace{
		m:        o.Machine,
		tree:     tree,
		isa:      o.ISA,
		asid:     o.Machine.AllocASID(),
		proto:    o.Protocol,
		valloc:   va,
		perCore:  o.PerCoreVA,
		coarse:   o.CoarseLocking,
		swapDev:  o.SwapDev,
		vaSizes:  make(map[arch.Vaddr]uint64),
		fixedVAs: make(map[arch.Vaddr]bool),
		cursors:  make([]cachedCursor, o.Machine.Cores),
		txDepth:  make([]txCounter, o.Machine.Cores),
	}, nil
}

// Name implements mm.MM.
func (a *AddrSpace) Name() string { return "cortenmm-" + a.proto.String() }

// ASID implements mm.MM.
func (a *AddrSpace) ASID() tlb.ASID { return a.asid }

// Stats implements mm.MM.
func (a *AddrSpace) Stats() *mm.Stats { return &a.stats }

// Machine returns the simulated hardware this space runs on.
func (a *AddrSpace) Machine() *cpusim.Machine { return a.m }

// SetSwapDev installs (or replaces) the swap device used by SwapOut and
// ReclaimRange. Pages already swapped to a previous device keep their
// recorded device reference.
func (a *AddrSpace) SetSwapDev(dev *mem.BlockDev) { a.swapDev = dev }

// Tree exposes the page table for invariant checks in tests.
func (a *AddrSpace) Tree() *pt.Tree { return a.tree }

// Features implements mm.MM: CortenMM's Table-2 row — everything except
// NUMA policies (§4.5).
func (a *AddrSpace) Features() mm.Features {
	return mm.Features{
		OnDemandPaging: true,
		COW:            true,
		PageSwapping:   true,
		ReverseMapping: true,
		MmapedFile:     true,
		HugePage:       true,
		NUMAPolicy:     false,
	}
}

// state returns the PT-page state of pfn.
func (a *AddrSpace) state(pfn arch.PFN) *pt.PageState { return a.tree.State(pfn) }

// registerFileMapping records a file mapping for reverse mapping and
// registers this space in the file's mapper tree.
func (a *AddrSpace) registerFileMapping(f *mem.File, va arch.Vaddr, pgoff, npages uint64, shared bool) {
	f.AddMapper(a)
	a.fileMu.Lock()
	a.fileMaps = append(a.fileMaps, fileMapping{file: f, va: va, pgoff: pgoff, npages: npages, shared: shared})
	a.fileMu.Unlock()
}

// pruneFileMappingsLocked drops reverse-mapping records whose range
// lies entirely inside the unmapped range [lo, hi) and returns their
// files; the caller unregisters each from its file once fileMu is
// released (AddMapper counts registrations, so the file's mapper entry
// disappears exactly when this space's last mapping of it goes away).
// Without this, Munmap leaked one fileMaps record — and one mapper
// registration — per file mapping for the life of the space. The
// caller holds fileMu.
func (a *AddrSpace) pruneFileMappingsLocked(lo, hi arch.Vaddr) (gone []*mem.File) {
	kept := a.fileMaps[:0]
	for _, fm := range a.fileMaps {
		end := fm.va + arch.Vaddr(fm.npages*arch.PageSize)
		if fm.va >= lo && end <= hi {
			gone = append(gone, fm.file)
			continue
		}
		kept = append(kept, fm)
	}
	a.fileMaps = kept
	return gone
}

// dropFileMappings unregisters every file mapping (teardown).
func (a *AddrSpace) dropFileMappings() {
	a.fileMu.Lock()
	maps := a.fileMaps
	a.fileMaps = nil
	a.fileMu.Unlock()
	for _, fm := range maps {
		fm.file.RemoveMapper(a)
	}
}

// lookupFileVAs translates a file page index into candidate virtual
// addresses under this space (reverse-mapping hints).
func (a *AddrSpace) lookupFileVAs(f *mem.File, index uint64) []arch.Vaddr {
	a.fileMu.Lock()
	defer a.fileMu.Unlock()
	var vas []arch.Vaddr
	for _, fm := range a.fileMaps {
		if fm.file == f && index >= fm.pgoff && index < fm.pgoff+fm.npages {
			vas = append(vas, fm.va+arch.Vaddr((index-fm.pgoff)*arch.PageSize))
		}
	}
	return vas
}
