// Package cpusim models the multicore machine the memory managers run
// on: a fixed set of cores (each simulated by one goroutine that carries
// its core ID), NUMA-node assignment, timer ticks that drive LATR TLB
// sweeps and RCU reclamation, and the virtual-address allocators —
// including the per-core allocator of §4.5, where each core owns a
// private share of the address space to avoid allocation contention.
package cpusim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cortenmm/internal/mem"
	"cortenmm/internal/rcu"
	"cortenmm/internal/tlb"
)

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of simulated CPUs.
	Cores int
	// NUMANodes partitions cores into contiguous cluster blocks of
	// nodes (NrOS replicas, physical-memory zones, cluster-IPI
	// delivery groups). Clamped to Cores.
	NUMANodes int
	// Frames is the simulated physical memory size in 4-KiB frames.
	Frames int
	// TLBMode selects the shootdown protocol.
	TLBMode tlb.Mode
	// TickEvery fires the per-core timer every N OpTick events
	// (default 64).
	TickEvery int
	// MonotonicASID restores the unbounded monotonically increasing
	// ASID allocator: every space gets a fresh identifier, FreeASID is
	// a no-op, and teardown must flush the whole machine itself. It
	// exists as the compat/ablation knob for measuring what generation
	// recycling buys — thousands of sequential ASIDs alias onto the
	// TLB's 64 epoch cells and every teardown's flush-all conservatively
	// kills ~1/64 of every other space's fills per core.
	MonotonicASID bool
}

// Machine bundles the hardware substrates of one simulated system.
type Machine struct {
	Cores     int
	NUMANodes int
	Phys      *mem.PhysMem
	TLB       *tlb.Machine
	RCU       *rcu.Domain

	// nodeOf maps each core to its NUMA node (contiguous cluster
	// blocks); nodeCores is the inverse — each node's core list in
	// ascending ID order, precomputed for cluster-batched fan-out.
	nodeOf    []int
	nodeCores [][]int

	tickEvery int
	ticks     []tickState
	asids     asidState
	// tickHook is an optional callback run at each timer tick after the
	// LATR sweep and RCU poll — the core layer hangs kswapd-style
	// background reclaim off it. It runs on the ticking core's
	// goroutine, which at tick time holds no page-table locks (OpTick
	// is always called before a transaction begins).
	tickHook atomic.Pointer[func(core int)]
}

type tickState struct {
	n uint64
	// tx counts the page-table transactions the core's goroutine is
	// currently inside (EnterTx/ExitTx). Direct compaction consults it:
	// migrating from within a transaction would deadlock on the RCU
	// barrier, so the compactor refuses on a core that is mid-transaction.
	tx int64
	_  [48]byte
}

// EnterTx notes that core's goroutine entered a page-table transaction.
func (m *Machine) EnterTx(core int) { atomic.AddInt64(&m.ticks[core].tx, 1) }

// ExitTx notes that core's goroutine left a page-table transaction.
func (m *Machine) ExitTx(core int) { atomic.AddInt64(&m.ticks[core].tx, -1) }

// InTx reports whether core's goroutine is inside a transaction.
func (m *Machine) InTx(core int) bool { return atomic.LoadInt64(&m.ticks[core].tx) > 0 }

// New builds a machine. Zero config fields get sensible defaults
// (4 cores, 1 node, 64 Ki frames = 256 MiB, sync TLB shootdown).
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.NUMANodes <= 0 {
		cfg.NUMANodes = 1
	}
	if cfg.NUMANodes > cfg.Cores {
		cfg.NUMANodes = cfg.Cores
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 1 << 16
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 64
	}
	// Contiguous cluster-block core→node assignment: cores [k·per,
	// (k+1)·per) live on node k, like socket-ordered core enumeration
	// on real multi-socket machines (and unlike the old round-robin,
	// which made "neighbouring" cores alternate sockets).
	nodeOf := make([]int, cfg.Cores)
	nodeCores := make([][]int, cfg.NUMANodes)
	per := (cfg.Cores + cfg.NUMANodes - 1) / cfg.NUMANodes
	for c := 0; c < cfg.Cores; c++ {
		n := c / per
		nodeOf[c] = n
		nodeCores[n] = append(nodeCores[n], c)
	}
	m := &Machine{
		Cores:     cfg.Cores,
		NUMANodes: cfg.NUMANodes,
		Phys:      mem.NewPhysMemNUMA(cfg.Frames, cfg.Cores, cfg.NUMANodes, nodeOf),
		TLB:       tlb.NewMachineNUMA(cfg.Cores, cfg.TLBMode, nodeOf),
		RCU:       rcu.NewDomain(cfg.Cores),
		nodeOf:    nodeOf,
		nodeCores: nodeCores,
		tickEvery: cfg.TickEvery,
		ticks:     make([]tickState, cfg.Cores),
	}
	m.asids.monotonic = cfg.MonotonicASID
	m.asids.gen = 1
	m.asids.fresh = 1 // slot 0 is reserved, like arm64's init_mm ASID
	return m
}

// NodeOf returns the NUMA node of a core.
func (m *Machine) NodeOf(core int) int { return m.nodeOf[core] }

// NodeCores returns the cores of one NUMA node in ascending ID order.
// The returned slice is shared; callers must not mutate it.
func (m *Machine) NodeCores(node int) []int { return m.nodeCores[node] }

// HWASIDs is the hardware address-space-identifier space: TLB tags carry
// an 8-bit ASID, as on pre-ASID16 arm64 parts, so at most HWASIDs-1
// spaces can be live at once (slot 0 is reserved). Identifiers above the
// slot space exist only in MonotonicASID compat mode.
const HWASIDs = 256

// asidState is the generation-recycling ASID allocator (modelled on
// arm64's check_and_switch_context rollover). Slots are handed out from
// a never-used pool first; freed slots are quarantined on the current
// generation's freed list and become reusable only after the next
// rollover, which flushes every translation on every core before any
// quarantined slot is reissued. That ordering is the allocator's one
// load-bearing invariant — recycle-implies-flushed: a recycled ASID can
// never hit a dead space's translations, even if the dead space's
// teardown issued no TLB invalidation at all. Teardown therefore skips
// the all-core shootdown entirely when recycling is on (see the space
// Destroy implementations), which is what keeps thousands of short-lived
// spaces from poisoning the shared epoch cells.
type asidState struct {
	mu        sync.Mutex
	monotonic bool
	next      uint32 // monotonic-mode counter
	gen       uint32 // current generation, bumped at each rollover
	fresh     uint32 // next never-handed-out slot
	live      [HWASIDs]bool
	nLive     int
	freed     []uint16 // freed this generation: reuse quarantined until rollover
	avail     []uint16 // freed before the last rollover: flushed, reusable
	rollovers uint64
}

// take pops a reusable slot: the flushed avail pool first (bounding how
// long dead translations linger), then the never-used pool.
func (s *asidState) take() (uint16, bool) {
	if n := len(s.avail); n > 0 {
		slot := s.avail[n-1]
		s.avail = s.avail[:n-1]
		return slot, true
	}
	if s.fresh < HWASIDs {
		slot := uint16(s.fresh)
		s.fresh++
		return slot, true
	}
	return 0, false
}

// AllocASID hands out an address-space identifier. With recycling (the
// default) it returns a hardware slot in [1, HWASIDs); on exhaustion it
// rolls the generation: flush every core of every translation, then — and
// only then — recirculate the slots freed since the previous rollover.
// Panics if more than HWASIDs-1 spaces are live at once (the simulated
// hardware has nowhere to put them; real kernels block the allocating
// task instead).
func (m *Machine) AllocASID() tlb.ASID {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.monotonic {
		s.next++
		return tlb.ASID(s.next)
	}
	slot, ok := s.take()
	if !ok {
		if len(s.freed) == 0 {
			panic(fmt.Sprintf("cpusim: ASID space exhausted: %d live address spaces >= %d hardware slots", s.nLive, HWASIDs-1))
		}
		// Rollover. The flush-all must complete before any quarantined
		// slot is reissued: after it, no core's TLB holds any
		// translation, so whatever a dead predecessor left behind under
		// a recycled slot is gone. Callers holding s.mu keep allocation
		// and the flush atomic with respect to other allocators.
		m.TLB.FlushAllASIDs()
		s.gen++
		s.rollovers++
		s.avail = append(s.avail[:0], s.freed...)
		s.freed = s.freed[:0]
		slot, _ = s.take()
	}
	s.live[slot] = true
	s.nLive++
	return tlb.ASID(slot)
}

// FreeASID returns an identifier after its space's teardown. The slot is
// quarantined until the next generation rollover; it is never reissued
// before a machine-wide flush. No-op in MonotonicASID mode. Panics on a
// double free or an identifier this allocator never issued.
func (m *Machine) FreeASID(asid tlb.ASID) {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.monotonic {
		return
	}
	slot := uint32(asid)
	if slot == 0 || slot >= HWASIDs || !s.live[slot] {
		panic(fmt.Sprintf("cpusim: FreeASID(%d): not a live ASID", asid))
	}
	s.live[slot] = false
	s.nLive--
	s.freed = append(s.freed, uint16(slot))
}

// ASIDRecycling reports whether the bounded recycling allocator is
// active (false in MonotonicASID compat mode). Space teardowns consult
// it: with recycling on they may skip the all-core teardown shootdown,
// because recycle-implies-flushed makes the dead translations
// unreachable until the rollover flush.
func (m *Machine) ASIDRecycling() bool { return !m.asids.monotonic }

// ASIDStats is a snapshot of allocator activity.
type ASIDStats struct {
	Live       int    // currently live identifiers
	Generation uint32 // current generation (1 + rollovers)
	Rollovers  uint64 // generation rollovers (each one machine-wide flush)
}

// ASIDStats snapshots the ASID allocator.
func (m *Machine) ASIDStats() ASIDStats {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	return ASIDStats{Live: s.nLive, Generation: s.gen, Rollovers: s.rollovers}
}

// Run executes fn concurrently on cores 0..n-1 and waits for all of
// them, the harness for every multithreaded workload.
func (m *Machine) Run(n int, fn func(core int)) {
	if n > m.Cores {
		panic(fmt.Sprintf("cpusim: Run(%d) exceeds %d cores", n, m.Cores))
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// SetTickHook registers fn to run at every timer tick (nil unregisters).
// fn must tolerate concurrent invocation from different cores and must
// not assume any locks are held.
func (m *Machine) SetTickHook(fn func(core int)) {
	if fn == nil {
		m.tickHook.Store(nil)
		return
	}
	m.tickHook.Store(&fn)
}

// OpTick advances core's event clock; every TickEvery events the core
// takes a "timer interrupt": it sweeps LATR buffers, polls RCU and runs
// the tick hook. Workloads call this once per high-level operation.
func (m *Machine) OpTick(core int) {
	t := &m.ticks[core]
	t.n++
	if t.n%uint64(m.tickEvery) == 0 {
		m.TLB.Tick(core)
		m.RCU.Poll()
		if h := m.tickHook.Load(); h != nil {
			(*h)(core)
		}
	}
}

// Quiesce drains all deferred work (RCU callbacks, pending TLB
// invalidations) — used between benchmark phases and in tests before
// checking invariants. After Quiesce returns, every queued
// invalidation has been turned into epoch-cell generation bumps on all
// cores, so no lookup anywhere can return a translation a completed
// shootdown covered (the LATR staleness window is closed).
func (m *Machine) Quiesce() {
	m.RCU.Barrier()
	for c := 0; c < m.Cores; c++ {
		m.TLB.Tick(c)
	}
	// Another core may have swapped out a queue these ticks found empty
	// and still be applying it.
	m.TLB.WaitApplied()
}

// TLBStats snapshots the TLB counters — hit rate, shootdown fan-out,
// presence filtering, deferred-queue activity — for benchmark reports.
func (m *Machine) TLBStats() tlb.Stats { return m.TLB.Stats() }
