// Package tlb simulates per-core translation lookaside buffers and the
// TLB-shootdown protocols CortenMM uses (§4.5): synchronous IPI
// broadcast, parallel flush with early acknowledgement (Amit et al.,
// EuroSys'20), and LATR-style lazy shootdown where unmap pushes the
// stale translations into a per-CPU buffer that every core drains on
// its timer tick (Kumar et al., ASPLOS'18).
//
// Each core's cache is a lock-free set-associative array (cache.go):
// Lookup and Insert are plain atomic loads/stores with no mutex and no
// cross-core writes. Remote invalidation is a generation bump on the
// target's per-(core, asid) epoch cell (epoch.go); cache entries are
// validated lazily against their cell on lookup. Shootdown initiators
// skip cores whose cells provably hold nothing for the ASID (presence
// filtering, the mm_cpumask analogue). The early-ack and LATR queues
// still use mutexes — they model interrupt mailboxes, not the access
// fast path — but their entries are applied through the same
// generation mechanism.
package tlb

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
	"cortenmm/internal/pt"
)

// maybeDelay sits between an initiator's local invalidation and the
// remote fan-out. When the tlb.shootdown-delay fault site is armed it
// yields the delivering goroutine, widening the window in which remote
// cores still hold the stale translation — stress for the staleness
// tolerance argued in §4.5.
func maybeDelay() {
	if fault.TLBShootdownDelay.Fire() {
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
	}
}

// Mode selects the shootdown protocol.
type Mode uint8

const (
	// ModeSync broadcasts IPIs and waits for every core to invalidate.
	ModeSync Mode = iota
	// ModeEarlyAck posts invalidation requests to per-core mailboxes and
	// returns without waiting; targets drain on their next TLB access.
	ModeEarlyAck
	// ModeLATR queues invalidations in the initiator's per-CPU buffer;
	// all cores sweep all buffers on timer ticks.
	ModeLATR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeEarlyAck:
		return "early-ack"
	case ModeLATR:
		return "latr"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ASID identifies an address space in TLB tags.
type ASID uint32

// Range is a half-open virtual-address range [Lo, Hi) of page-aligned
// addresses, the unit of a coalesced shootdown: unmapping 1 GiB issues
// one range invalidation instead of 256 Ki single-page ones.
type Range struct {
	Lo, Hi arch.Vaddr
}

// Invalidation is one pending shootdown request.
type Invalidation struct {
	ASID ASID
	// [Lo, Hi) is the page range to invalidate; All=true invalidates the
	// whole ASID instead.
	Lo, Hi arch.Vaddr
	All    bool
}

// coreStats are per-core counters, padded so cores never share a cache
// line; Stats() aggregates them.
type coreStats struct {
	lookups    atomic.Uint64
	hits       atomic.Uint64
	shootdowns atomic.Uint64 // shootdown events this core initiated
	ipis       atomic.Uint64 // remote cores this core's sync shootdowns signalled
	filtered   atomic.Uint64 // remote cores skipped by presence filtering
	deferred   atomic.Uint64 // invalidations queued rather than applied
	applied    atomic.Uint64 // queued invalidations applied by drain/sweep
	genBumps   atomic.Uint64 // epoch-cell generation bumps issued
	evictions  atomic.Uint64 // valid entries displaced by capacity replacement
	staleDrops atomic.Uint64 // entries discarded by lazy generation checks
	crossDrops atomic.Uint64 // stale drops caused by another ASID's full flush (cell aliasing)
	hugeHits   atomic.Uint64 // lookups served by the huge-entry array
	hugeEvicts atomic.Uint64 // huge entries displaced by capacity replacement
	_          [40]byte
}

// coreTLB is one core's cache, epoch cells and shootdown mailboxes.
// The slot array is written only via this core's own API calls; the
// epoch cells take writes from any core.
type coreTLB struct {
	slots      []slot      // nSets × nWays 4-KiB cache entries
	hugeSlots  []slot      // hugeSets × nWays huge-leaf entries (va = span base)
	cells      []epochCell // asidCells generation cells
	victim     atomic.Uint32
	hugeVictim atomic.Uint32
	// hasHuge is set, and never cleared, before this core's first huge
	// fill. While it is clear the huge array holds no valid entry, so
	// lookups and precise invalidations skip probing it.
	hasHuge atomic.Bool

	// Adaptive precise-vs-bump cutover state (see invalidateLocal and
	// adaptTick). precLimit is read on every local invalidation; the
	// window counters are swapped out every adaptWindow invalidations.
	precLimit atomic.Int64
	invTick   atomic.Uint64 // local invalidations since machine start
	precPages atomic.Uint64 // pages precisely cleared this window
	genChecks atomic.Uint64 // lookups that replayed the ring this window

	// inbox holds early-ack invalidation requests posted by other
	// cores; inboxN mirrors its length so the Lookup fast path can skip
	// the mutex when nothing is pending.
	inboxMu    sync.Mutex
	inbox      []Invalidation
	inboxSpare []Invalidation
	inboxN     atomic.Int64

	// latrBuf is this core's LATR buffer of invalidations it initiated.
	latrMu    sync.Mutex
	latrBuf   []Invalidation
	latrSpare []Invalidation
	latrN     atomic.Int64

	stats coreStats
}

func (c *coreTLB) cell(asid ASID) *epochCell {
	return &c.cells[uint32(asid)&(asidCells-1)]
}

func (c *coreTLB) set(asid ASID, va arch.Vaddr) []slot {
	i := setIndex(asid, va) * nWays
	return c.slots[i : i+nWays : i+nWays]
}

func (c *coreTLB) hugeSet(asid ASID, base arch.Vaddr, level int) []slot {
	i := hugeSetIndex(asid, base, level) * nWays
	return c.hugeSlots[i : i+nWays : i+nWays]
}

// nodeShootStats count shootdown traffic per target NUMA node, padded
// so nodes never share a cache line.
type nodeShootStats struct {
	deliveries  atomic.Uint64 // per-core bumps/posts delivered to this node's cores
	filtered    atomic.Uint64 // this node's cores skipped by presence filtering
	clusterIPIs atomic.Uint64 // node-granular broadcasts with >=1 delivery here
	_           [40]byte
}

// Machine is the TLB hardware of the whole simulated machine.
type Machine struct {
	mode  Mode
	cores []coreTLB

	// nodeOf maps cores to NUMA nodes; nodeCores is the inverse.
	// Shootdown fan-out walks cores node by node (initiator's node
	// first), modelling cluster-mode IPI delivery: one logical IPI per
	// node that has at least one non-filtered target, instead of one
	// point-to-point interrupt per core.
	nodeOf    []int
	nodeCores [][]int
	nodeStats []nodeShootStats

	// fullFlushes counts machine-wide FlushAllASIDs events (ASID
	// generation rollovers).
	fullFlushes atomic.Uint64
	// migShootdowns counts synchronous shootdowns issued on behalf of
	// frame migration's break-before-make window (NoteMigration).
	migShootdowns atomic.Uint64
	// applying counts early-ack inboxes and LATR buffers swapped out for
	// application and not yet applied (see WaitApplied).
	applying atomic.Int64
}

// NoteMigration records one migration-driven synchronous shootdown.
func (m *Machine) NoteMigration() { m.migShootdowns.Add(1) }

// NewMachine creates TLBs for the given core count and protocol on a
// single NUMA node.
func NewMachine(cores int, mode Mode) *Machine {
	return NewMachineNUMA(cores, mode, nil)
}

// NewMachineNUMA creates TLBs for cores whose NUMA nodes are given by
// nodeOf (nodeOf[c] is core c's node; nil means one node). The node map
// only shapes shootdown fan-out order and per-node accounting — cache
// contents and the staleness contract are identical on any topology.
func NewMachineNUMA(cores int, mode Mode, nodeOf []int) *Machine {
	if nodeOf == nil {
		nodeOf = make([]int, cores)
	}
	nodes := 1
	for _, n := range nodeOf {
		if n+1 > nodes {
			nodes = n + 1
		}
	}
	m := &Machine{
		mode:      mode,
		cores:     make([]coreTLB, cores),
		nodeOf:    append([]int(nil), nodeOf...),
		nodeCores: make([][]int, nodes),
		nodeStats: make([]nodeShootStats, nodes),
	}
	for c := 0; c < cores; c++ {
		m.nodeCores[nodeOf[c]] = append(m.nodeCores[nodeOf[c]], c)
	}
	for i := range m.cores {
		m.cores[i].slots = make([]slot, nSets*nWays)
		m.cores[i].hugeSlots = make([]slot, hugeSets*nWays)
		m.cores[i].cells = make([]epochCell, asidCells)
		m.cores[i].precLimit.Store(preciseLimitInit)
	}
	return m
}

// visitRemoteByNode visits every core except the initiator in
// node-batched order: the initiator's own node first (cheapest
// interrupts), then the remaining nodes by ascending ID with wrap.
// visit reports whether the core was actually signalled (false =
// presence-filtered); every node with at least one delivery costs one
// cluster IPI. Per-node delivery/filter/cluster counters accrue here so
// each protocol's fan-out loop stays a one-liner.
func (m *Machine) visitRemoteByNode(initiator int, visit func(j int) bool) {
	home := m.nodeOf[initiator]
	nn := len(m.nodeCores)
	for k := 0; k < nn; k++ {
		n := home + k
		if n >= nn {
			n -= nn
		}
		ns := &m.nodeStats[n]
		delivered := false
		for _, j := range m.nodeCores[n] {
			if j == initiator {
				continue
			}
			if visit(j) {
				delivered = true
				ns.deliveries.Add(1)
			} else {
				ns.filtered.Add(1)
			}
		}
		if delivered {
			ns.clusterIPIs.Add(1)
		}
	}
}

// Mode returns the configured shootdown protocol.
func (m *Machine) Mode() Mode { return m.mode }

// Lookup consults core's TLB for (asid, va). Early-ack mailboxes are
// drained first, modelling the interrupt arriving before the access.
// The fast path is mutex-free: a probe of one set plus one generation
// load; entries whose generation lags are validated against the epoch
// cell's ring and either re-stamped or discarded.
func (m *Machine) Lookup(core int, asid ASID, va arch.Vaddr) (pt.Translation, bool) {
	c := &m.cores[core]
	if m.mode == ModeEarlyAck && c.inboxN.Load() > 0 {
		m.drainInbox(c)
	}
	c.stats.lookups.Add(1)
	hdr := hdrValid | uint64(asid)
	cell := c.cell(asid)
	set := c.set(asid, va)
	for i := range set {
		s := &set[i]
		shdr, sva, sgen, trw, seq, ok := s.read()
		if !ok || shdr != hdr || sva != uint64(va) {
			continue
		}
		if cur := cell.gen.Load(); sgen != cur {
			c.genChecks.Add(1)
			cur, live, cross := cell.validate(asid, va, va+arch.PageSize, sgen)
			if !live {
				c.stats.staleDrops.Add(1)
				if cross {
					c.stats.crossDrops.Add(1)
				}
				s.clear(seq)
				continue
			}
			s.refreshGen(seq, cur)
		}
		c.stats.hits.Add(1)
		return unpackTr(trw), true
	}
	return c.lookupHuge(cell, asid, va)
}

// lookupHuge probes the huge-entry array at each huge level's natural
// alignment after a base-array miss. A hit is rebased to the 4-KiB
// page the caller asked about, so callers see ordinary page
// translations; generation validation uses the whole span, so any
// overlapping invalidation — even a single 4-KiB record — kills the
// entry.
func (c *coreTLB) lookupHuge(cell *epochCell, asid ASID, va arch.Vaddr) (pt.Translation, bool) {
	if !c.hasHuge.Load() {
		return pt.Translation{}, false
	}
	hdr := hdrValid | uint64(asid)
	for _, level := range hugeLevels {
		span := arch.Vaddr(arch.SpanBytes(level))
		base := va &^ (span - 1)
		set := c.hugeSet(asid, base, level)
		for i := range set {
			s := &set[i]
			shdr, sva, sgen, trw, seq, ok := s.read()
			if !ok || shdr != hdr || sva != uint64(base) || int(trw&7) != level {
				continue
			}
			if cur := cell.gen.Load(); sgen != cur {
				c.genChecks.Add(1)
				cur, live, cross := cell.validate(asid, base, base+span, sgen)
				if !live {
					c.stats.staleDrops.Add(1)
					if cross {
						c.stats.crossDrops.Add(1)
					}
					s.clear(seq)
					continue
				}
				s.refreshGen(seq, cur)
			}
			c.stats.hits.Add(1)
			c.stats.hugeHits.Add(1)
			tr := unpackTr(trw)
			tr.PFN += arch.PFN(uint64(va-base) / arch.PageSize)
			return tr, true
		}
	}
	return pt.Translation{}, false
}

// Insert caches a translation in core's TLB. Mutex-free: the victim
// way is claimed by a per-slot CAS, and a lost race simply drops the
// fill (the next access re-walks). Huge leaves (tr.Level >= 2) go to
// the span-indexed huge array: callers pass the 4-KiB page they
// translated with the page-adjusted PFN (pt.WalkAccess's contract), and
// Insert normalizes both back to the span base so one fill makes every
// offset in the leaf hit.
func (m *Machine) Insert(core int, asid ASID, va arch.Vaddr, tr pt.Translation) {
	c := &m.cores[core]
	cell := c.cell(asid)
	g := cell.gen.Load()
	// Publish presence before the entry: a shootdown that sees the
	// entry must not have been filtered out (see maybePresent).
	if l := cell.lastIns.Load(); g+1 > l {
		cell.lastIns.Store(g + 1)
	}
	hdr := hdrValid | uint64(asid)
	if tr.Level >= 2 {
		span := arch.Vaddr(arch.SpanBytes(tr.Level))
		base := va &^ (span - 1)
		tr.PFN -= arch.PFN(uint64(va-base) / arch.PageSize)
		c.hasHuge.Store(true)
		set := c.hugeSet(asid, base, tr.Level)
		if c.fillSet(set, &c.hugeVictim, hdr, uint64(base), g, packTr(tr)) {
			c.stats.hugeEvicts.Add(1)
		}
		return
	}
	if c.fillSet(c.set(asid, va), &c.victim, hdr, uint64(va), g, packTr(tr)) {
		c.stats.evictions.Add(1)
	}
}

// fillSet publishes an entry into one set, preferring the entry itself
// (re-fill), an empty way, a generation-stale way, then round-robin
// capacity replacement. Reports whether a capacity eviction happened;
// a fill dropped to a racing writer reports false.
func (c *coreTLB) fillSet(set []slot, victimCtr *atomic.Uint32, hdr, va, g, trw uint64) bool {
	var victim *slot
	var victimSeq uint64
	score := 0
	for i := range set {
		s := &set[i]
		shdr, sva, sgen, _, seq, ok := s.read()
		if !ok {
			continue
		}
		if shdr == hdr && sva == va {
			victim, victimSeq, score = s, seq, 3
			break
		}
		switch {
		case shdr&hdrValid == 0:
			if score < 2 {
				victim, victimSeq, score = s, seq, 2
			}
		case score < 1 && sgen != c.cell(ASID(shdr)).gen.Load():
			victim, victimSeq, score = s, seq, 1
		}
	}
	evicted := false
	if victim == nil {
		s := &set[int(victimCtr.Add(1))%len(set)]
		seq := s.seq.Load()
		if seq&1 != 0 {
			return false // racing writer; drop the fill
		}
		victim, victimSeq = s, seq
		evicted = true
	}
	victim.write(victimSeq, hdr, va, g, trw)
	return evicted
}

// FlushLocal removes (asid, va) from core's own TLB, including any
// huge entry whose span contains va.
func (m *Machine) FlushLocal(core int, asid ASID, va arch.Vaddr) {
	c := &m.cores[core]
	c.clearSlot(asid, va)
	c.clearHugeSpans(asid, va, va+arch.PageSize)
}

// FlushLocalRange removes asid's entries in [lo, hi) from core's own TLB.
func (m *Machine) FlushLocalRange(core int, asid ASID, lo, hi arch.Vaddr) {
	c := &m.cores[core]
	c.invalidateLocal(Invalidation{ASID: asid, Lo: lo, Hi: hi})
}

// FlushLocalAll removes all of asid's entries from core's own TLB.
func (m *Machine) FlushLocalAll(core int, asid ASID) {
	c := &m.cores[core]
	c.invalidateLocal(Invalidation{ASID: asid, All: true})
}

// FlushAllASIDs invalidates every translation of every ASID on every
// core — the ASID generation-rollover flush. One full-ASID bump per
// epoch cell suffices: validate's allGen early-out rejects every fill
// published at or before the bump regardless of its ASID, and the
// recAll record resets each cell's overflow history and presence
// filter. Records tagged ASID 0 (the reserved slot) mark the kills as
// allocator-driven; any core may issue the bumps, so the caller needs
// no core identity. Invalidations still queued in early-ack inboxes or
// LATR buffers are left in place: applying one later only re-kills
// entries conservatively, which is always legal.
func (m *Machine) FlushAllASIDs() {
	m.fullFlushes.Add(1)
	for i := range m.cores {
		c := &m.cores[i]
		for j := range c.cells {
			c.cells[j].bump(0, 0, arch.MaxVaddr, true)
		}
	}
}

// Adaptive precise-vs-bump cutover. A local invalidation at or below
// the core's current limit clears slots one by one; wider ranges become
// a single generation bump. The limit starts at preciseLimitInit and
// adapts per core from observed outcomes: generation bumps are cheap to
// issue but tax later lookups (every entry filled before the bump pays
// a ring replay, and histories that fall off the ring become
// conservative misses), while precise clears pay a set probe per page
// up front whether or not anything was cached.
const (
	preciseLimitInit = 16
	preciseLimitMin  = 4
	preciseLimitMax  = 256
	// adaptWindow is how many local invalidations pass between limit
	// adjustments.
	adaptWindow = 64
)

// invalidateLocal applies one invalidation to this core's own cache:
// precisely for ranges within the adaptive limit, or as a generation
// bump on its own epoch cell for wider ranges and full-ASID flushes,
// leaving dead entries for lookups to discard lazily. The precise path
// also clears any huge entry overlapping the range; the bump path
// covers huge entries through span-aware ring replay.
func (c *coreTLB) invalidateLocal(inv Invalidation) {
	if pages := uint64(inv.Hi-inv.Lo) / arch.PageSize; !inv.All && pages <= uint64(c.precLimit.Load()) {
		for va := inv.Lo; va < inv.Hi; va += arch.PageSize {
			c.clearSlot(inv.ASID, va)
		}
		c.clearHugeSpans(inv.ASID, inv.Lo, inv.Hi)
		c.precPages.Add(pages)
		c.adaptTick()
		return
	}
	c.cell(inv.ASID).bump(inv.ASID, inv.Lo, inv.Hi, inv.All)
	c.stats.genBumps.Add(1)
	c.adaptTick()
}

// adaptTick re-tunes the precise-vs-bump limit once per adaptWindow
// local invalidations by comparing the two observed costs in slot-probe
// units: each stale validation replays up to ringLen ring records,
// each precisely cleared page probes one nWays-wide set. A 2× margin
// gives hysteresis so mixed workloads don't oscillate.
func (c *coreTLB) adaptTick() {
	if c.invTick.Add(1)%adaptWindow != 0 {
		return
	}
	lazyCost := c.genChecks.Swap(0) * ringLen
	preciseCost := c.precPages.Swap(0) * nWays
	limit := c.precLimit.Load()
	switch {
	case lazyCost > 2*preciseCost && limit < preciseLimitMax:
		c.precLimit.Store(limit * 2)
	case preciseCost > 2*lazyCost && limit > preciseLimitMin:
		c.precLimit.Store(limit / 2)
	}
}

// clearSlot empties the slot caching (asid, va), if any.
func (c *coreTLB) clearSlot(asid ASID, va arch.Vaddr) {
	hdr := hdrValid | uint64(asid)
	set := c.set(asid, va)
	for i := range set {
		s := &set[i]
		shdr, sva, _, _, seq, ok := s.read()
		if ok && shdr == hdr && sva == uint64(va) {
			s.clear(seq)
			return
		}
	}
}

// clearHugeSpans empties every huge entry of asid whose span overlaps
// [lo, hi). Precise local invalidation must reach the huge array too:
// after a huge leaf is split into a leaf table (translations unchanged,
// so the split itself needs no flush), a later small unmap inside the
// span takes the precise path, and missing the huge slot would leave a
// stale whole-span translation behind.
func (c *coreTLB) clearHugeSpans(asid ASID, lo, hi arch.Vaddr) {
	if !c.hasHuge.Load() {
		return
	}
	hdr := hdrValid | uint64(asid)
	for _, level := range hugeLevels {
		span := arch.Vaddr(arch.SpanBytes(level))
		for base := lo &^ (span - 1); base < hi; base += span {
			set := c.hugeSet(asid, base, level)
			for i := range set {
				s := &set[i]
				shdr, sva, _, trw, seq, ok := s.read()
				if ok && shdr == hdr && sva == uint64(base) && int(trw&7) == level {
					s.clear(seq)
				}
			}
		}
	}
}

// maxFanRecs bounds how many ring records one shootdown spends on a
// remote cell; denser requests collapse to their envelope (a safe
// over-invalidation that preserves the ring's recent history).
const maxFanRecs = 4

// bumpRemote records page invalidations on one remote cell.
func bumpRemote(cell *epochCell, asid ASID, vas []arch.Vaddr, st *coreStats) {
	if len(vas) <= maxFanRecs {
		for _, va := range vas {
			cell.bump(asid, va, va+arch.PageSize, false)
		}
		st.genBumps.Add(uint64(len(vas)))
		return
	}
	lo, hi := vas[0], vas[0]
	for _, va := range vas[1:] {
		if va < lo {
			lo = va
		}
		if va > hi {
			hi = va
		}
	}
	cell.bump(asid, lo, hi+arch.PageSize, false)
	st.genBumps.Add(1)
}

// bumpRemoteRanges records range invalidations on one remote cell.
func bumpRemoteRanges(cell *epochCell, asid ASID, ranges []Range, st *coreStats) {
	if len(ranges) <= maxFanRecs {
		for _, r := range ranges {
			cell.bump(asid, r.Lo, r.Hi, false)
		}
		st.genBumps.Add(uint64(len(ranges)))
		return
	}
	lo, hi := ranges[0].Lo, ranges[0].Hi
	for _, r := range ranges[1:] {
		if r.Lo < lo {
			lo = r.Lo
		}
		if r.Hi > hi {
			hi = r.Hi
		}
	}
	cell.bump(asid, lo, hi, false)
	st.genBumps.Add(1)
}

// Shootdown invalidates the given pages of asid on every core, using
// the configured protocol. initiator's own TLB is always flushed
// immediately. No intermediate request slice is built: sync mode bumps
// target cells directly and the queueing modes append straight into
// the persistent mailbox buffers.
func (m *Machine) Shootdown(initiator int, asid ASID, vas []arch.Vaddr) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	for _, va := range vas {
		c.clearSlot(asid, va)
		c.clearHugeSpans(asid, va, va+arch.PageSize)
	}
	maybeDelay()
	switch m.mode {
	case ModeSync:
		m.visitRemoteByNode(initiator, func(j int) bool {
			cell := m.cores[j].cell(asid)
			if !cell.maybePresent() {
				c.stats.filtered.Add(1)
				return false
			}
			c.stats.ipis.Add(1)
			bumpRemote(cell, asid, vas, &c.stats)
			return true
		})
	case ModeEarlyAck:
		m.visitRemoteByNode(initiator, func(j int) bool {
			t := &m.cores[j]
			if !t.cell(asid).maybePresent() {
				c.stats.filtered.Add(1)
				return false
			}
			t.inboxMu.Lock()
			for _, va := range vas {
				t.inbox = append(t.inbox, Invalidation{ASID: asid, Lo: va, Hi: va + arch.PageSize})
			}
			t.inboxN.Add(int64(len(vas)))
			t.inboxMu.Unlock()
			c.stats.deferred.Add(uint64(len(vas)))
			return true
		})
	case ModeLATR:
		c.latrMu.Lock()
		for _, va := range vas {
			c.latrBuf = append(c.latrBuf, Invalidation{ASID: asid, Lo: va, Hi: va + arch.PageSize})
		}
		c.latrN.Add(int64(len(vas)))
		c.latrMu.Unlock()
		c.stats.deferred.Add(uint64(len(vas)))
	}
}

// ShootdownRanges invalidates the given VA ranges of asid on every core
// using the configured protocol — the coalesced counterpart of
// Shootdown that range unmaps use.
func (m *Machine) ShootdownRanges(initiator int, asid ASID, ranges []Range) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	for _, r := range ranges {
		c.invalidateLocal(Invalidation{ASID: asid, Lo: r.Lo, Hi: r.Hi})
	}
	maybeDelay()
	switch m.mode {
	case ModeSync:
		m.fanRangesNow(c, initiator, asid, ranges)
	case ModeEarlyAck:
		m.visitRemoteByNode(initiator, func(j int) bool {
			t := &m.cores[j]
			if !t.cell(asid).maybePresent() {
				c.stats.filtered.Add(1)
				return false
			}
			t.inboxMu.Lock()
			for _, r := range ranges {
				t.inbox = append(t.inbox, Invalidation{ASID: asid, Lo: r.Lo, Hi: r.Hi})
			}
			t.inboxN.Add(int64(len(ranges)))
			t.inboxMu.Unlock()
			c.stats.deferred.Add(uint64(len(ranges)))
			return true
		})
	case ModeLATR:
		c.latrMu.Lock()
		for _, r := range ranges {
			c.latrBuf = append(c.latrBuf, Invalidation{ASID: asid, Lo: r.Lo, Hi: r.Hi})
		}
		c.latrN.Add(int64(len(ranges)))
		c.latrMu.Unlock()
		c.stats.deferred.Add(uint64(len(ranges)))
	}
}

// ShootdownRange is ShootdownRanges for a single [lo, hi) range — the
// common case of a contiguous unmap, without the slice literal.
func (m *Machine) ShootdownRange(initiator int, asid ASID, lo, hi arch.Vaddr) {
	r := [1]Range{{Lo: lo, Hi: hi}}
	m.ShootdownRanges(initiator, asid, r[:])
}

// ShootdownRangesSync invalidates the given VA ranges on every core
// immediately regardless of the configured protocol (see ShootdownSync).
func (m *Machine) ShootdownRangesSync(initiator int, asid ASID, ranges []Range) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	for _, r := range ranges {
		c.invalidateLocal(Invalidation{ASID: asid, Lo: r.Lo, Hi: r.Hi})
	}
	maybeDelay()
	m.fanRangesNow(c, initiator, asid, ranges)
}

// ShootdownRangeSync is ShootdownRangesSync for a single range.
func (m *Machine) ShootdownRangeSync(initiator int, asid ASID, lo, hi arch.Vaddr) {
	r := [1]Range{{Lo: lo, Hi: hi}}
	m.ShootdownRangesSync(initiator, asid, r[:])
}

func (m *Machine) fanRangesNow(c *coreTLB, initiator int, asid ASID, ranges []Range) {
	m.visitRemoteByNode(initiator, func(j int) bool {
		cell := m.cores[j].cell(asid)
		if !cell.maybePresent() {
			c.stats.filtered.Add(1)
			return false
		}
		c.stats.ipis.Add(1)
		bumpRemoteRanges(cell, asid, ranges, &c.stats)
		return true
	})
}

// ShootdownAll invalidates every entry of asid on every core (used for
// address-space teardown and fork).
func (m *Machine) ShootdownAll(initiator int, asid ASID) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	c.invalidateLocal(Invalidation{ASID: asid, All: true})
	maybeDelay()
	switch m.mode {
	case ModeSync:
		m.fanAllNow(c, initiator, asid)
	case ModeEarlyAck:
		m.visitRemoteByNode(initiator, func(j int) bool {
			t := &m.cores[j]
			if !t.cell(asid).maybePresent() {
				c.stats.filtered.Add(1)
				return false
			}
			t.inboxMu.Lock()
			t.inbox = append(t.inbox, Invalidation{ASID: asid, All: true})
			t.inboxN.Add(1)
			t.inboxMu.Unlock()
			c.stats.deferred.Add(1)
			return true
		})
	case ModeLATR:
		c.latrMu.Lock()
		c.latrBuf = append(c.latrBuf, Invalidation{ASID: asid, All: true})
		c.latrN.Add(1)
		c.latrMu.Unlock()
		c.stats.deferred.Add(1)
	}
}

// ShootdownSync invalidates pages on every core immediately regardless
// of the configured protocol. Permission tightenings (COW on fork,
// mprotect) must not be deferred — LATR's laziness applies only to
// unmap (§4.5) — so they use this path.
func (m *Machine) ShootdownSync(initiator int, asid ASID, vas []arch.Vaddr) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	for _, va := range vas {
		c.clearSlot(asid, va)
		c.clearHugeSpans(asid, va, va+arch.PageSize)
	}
	maybeDelay()
	m.visitRemoteByNode(initiator, func(j int) bool {
		cell := m.cores[j].cell(asid)
		if !cell.maybePresent() {
			c.stats.filtered.Add(1)
			return false
		}
		c.stats.ipis.Add(1)
		bumpRemote(cell, asid, vas, &c.stats)
		return true
	})
}

// ShootdownPageSync is ShootdownSync for a single page — the COW-break
// and spurious-fault paths, without the slice literal.
func (m *Machine) ShootdownPageSync(initiator int, asid ASID, va arch.Vaddr) {
	v := [1]arch.Vaddr{va}
	m.ShootdownSync(initiator, asid, v[:])
}

// ShootdownAllSync invalidates the whole ASID everywhere immediately.
func (m *Machine) ShootdownAllSync(initiator int, asid ASID) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	c.invalidateLocal(Invalidation{ASID: asid, All: true})
	maybeDelay()
	m.fanAllNow(c, initiator, asid)
}

func (m *Machine) fanAllNow(c *coreTLB, initiator int, asid ASID) {
	m.visitRemoteByNode(initiator, func(j int) bool {
		cell := m.cores[j].cell(asid)
		if !cell.maybePresent() {
			c.stats.filtered.Add(1)
			return false
		}
		c.stats.ipis.Add(1)
		cell.bump(asid, 0, arch.MaxVaddr, true)
		c.stats.genBumps.Add(1)
		return true
	})
}

// drainInbox applies this core's queued early-ack invalidations.
func (m *Machine) drainInbox(c *coreTLB) {
	c.inboxMu.Lock()
	if len(c.inbox) == 0 {
		c.inboxMu.Unlock()
		return
	}
	pending := c.inbox
	c.inbox = c.inboxSpare[:0]
	c.inboxSpare = nil
	m.applying.Add(1)
	c.inboxN.Store(0)
	c.inboxMu.Unlock()
	for _, inv := range pending {
		c.invalidateLocal(inv)
	}
	c.stats.applied.Add(uint64(len(pending)))
	m.applying.Add(-1)
	c.inboxMu.Lock()
	if c.inboxSpare == nil {
		c.inboxSpare = pending[:0]
	}
	c.inboxMu.Unlock()
}

// Tick is the core's timer interrupt: under LATR it sweeps every core's
// buffer; the first sweeper applies each entry on behalf of everyone —
// its own cache precisely, every other core via a generation bump on
// that core's epoch cell — matching LATR's bounded staleness of one
// tick period.
func (m *Machine) Tick(core int) {
	c := &m.cores[core]
	if m.mode != ModeLATR {
		m.drainInbox(c)
		return
	}
	for i := range m.cores {
		src := &m.cores[i]
		if src.latrN.Load() == 0 {
			continue
		}
		src.latrMu.Lock()
		pending := src.latrBuf
		src.latrBuf = src.latrSpare[:0]
		src.latrSpare = nil
		// Count the buffer in flight before it looks drained, so a
		// WaitApplied that follows a sweep seeing latrN == 0 sees it.
		m.applying.Add(1)
		src.latrN.Store(0)
		src.latrMu.Unlock()
		for _, inv := range pending {
			inv := inv
			c.invalidateLocal(inv)
			m.visitRemoteByNode(core, func(j int) bool {
				cell := m.cores[j].cell(inv.ASID)
				if !cell.maybePresent() {
					return false
				}
				cell.bump(inv.ASID, inv.Lo, inv.Hi, inv.All)
				c.stats.genBumps.Add(1)
				return true
			})
		}
		c.stats.applied.Add(uint64(len(pending)))
		m.applying.Add(-1)
		src.latrMu.Lock()
		if src.latrSpare == nil {
			src.latrSpare = pending[:0]
		}
		src.latrMu.Unlock()
	}
}

// WaitApplied returns once no early-ack inbox or LATR buffer swapped
// out for application is still being applied. Both are applied after
// their lock is released, so a sweep that finds every queue empty can
// overtake another core's drain that is still clearing slots or bumping
// epoch cells; a caller that needs every queued invalidation applied
// ticks every core and then calls WaitApplied.
func (m *Machine) WaitApplied() {
	for m.applying.Load() != 0 {
		runtime.Gosched()
	}
}

// PendingInvalidations reports queued-but-unapplied invalidations
// (early-ack inboxes plus LATR buffers) for testing the protocols'
// staleness bounds.
func (m *Machine) PendingInvalidations() int {
	n := int64(0)
	for i := range m.cores {
		n += m.cores[i].inboxN.Load() + m.cores[i].latrN.Load()
	}
	return int(n)
}

// Stats is a snapshot of TLB activity.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Shootdowns uint64 // shootdown events initiated
	IPIs       uint64 // remote cores signalled synchronously
	Filtered   uint64 // remote cores skipped by ASID presence filtering
	Deferred   uint64 // invalidations queued rather than applied
	Applied    uint64 // queued invalidations applied by drain/sweep
	GenBumps   uint64 // epoch-cell generation bumps
	Evictions  uint64 // capacity evictions of valid entries
	StaleDrops uint64 // entries lazily discarded by generation checks
	// CrossKills counts stale drops whose killing record was a full-ASID
	// flush of a *different* ASID sharing the epoch cell — conservative
	// kills caused purely by asid-mod-64 aliasing. An unbounded ASID
	// allocator under address-space churn drives this up linearly with
	// teardowns; generation recycling bounds it to the rollover flushes.
	CrossKills uint64
	// FullFlushes counts machine-wide FlushAllASIDs events (generation
	// rollovers of the ASID allocator).
	FullFlushes uint64
	// MigrationShootdowns counts synchronous shootdowns issued for
	// frame-migration break-before-make windows.
	MigrationShootdowns uint64
	HugeHits            uint64 // lookups served by the huge-entry array
	HugeEvicts          uint64 // huge entries displaced by capacity replacement
	// ClusterIPIs counts node-granular IPI broadcasts: one per target
	// node with at least one non-filtered core per fan-out event. On a
	// single node this equals the number of fan-out events that
	// signalled anyone.
	ClusterIPIs uint64
	// PrecLimitMin/Max/Avg snapshot the adaptive precise-vs-bump
	// cutover across cores — where each workload's invalidation mix
	// drove the per-core limits (between preciseLimitMin and Max).
	PrecLimitMin int64
	PrecLimitMax int64
	PrecLimitAvg float64
}

// HitRate is Hits/Lookups, 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Stats returns cumulative counters aggregated over all cores.
func (m *Machine) Stats() Stats {
	var out Stats
	var limSum int64
	for i := range m.cores {
		st := &m.cores[i].stats
		out.Lookups += st.lookups.Load()
		out.Hits += st.hits.Load()
		out.Shootdowns += st.shootdowns.Load()
		out.IPIs += st.ipis.Load()
		out.Filtered += st.filtered.Load()
		out.Deferred += st.deferred.Load()
		out.Applied += st.applied.Load()
		out.GenBumps += st.genBumps.Load()
		out.Evictions += st.evictions.Load()
		out.StaleDrops += st.staleDrops.Load()
		out.CrossKills += st.crossDrops.Load()
		out.HugeHits += st.hugeHits.Load()
		out.HugeEvicts += st.hugeEvicts.Load()
		lim := m.cores[i].precLimit.Load()
		if i == 0 || lim < out.PrecLimitMin {
			out.PrecLimitMin = lim
		}
		if lim > out.PrecLimitMax {
			out.PrecLimitMax = lim
		}
		limSum += lim
	}
	if len(m.cores) > 0 {
		out.PrecLimitAvg = float64(limSum) / float64(len(m.cores))
	}
	for n := range m.nodeStats {
		out.ClusterIPIs += m.nodeStats[n].clusterIPIs.Load()
	}
	out.FullFlushes = m.fullFlushes.Load()
	out.MigrationShootdowns = m.migShootdowns.Load()
	return out
}

// NodeShootdownStats is one NUMA node's view of inbound shootdown
// traffic.
type NodeShootdownStats struct {
	Node int
	// Deliveries counts per-core invalidation deliveries (generation
	// bumps or mailbox posts) to this node's cores.
	Deliveries uint64
	// Filtered counts this node's cores skipped by presence filtering.
	Filtered uint64
	// ClusterIPIs counts node-granular broadcasts that reached this
	// node (>=1 delivery).
	ClusterIPIs uint64
}

// NodeStats snapshots per-node shootdown fan-out counters.
func (m *Machine) NodeStats() []NodeShootdownStats {
	out := make([]NodeShootdownStats, len(m.nodeStats))
	for n := range m.nodeStats {
		out[n] = NodeShootdownStats{
			Node:        n,
			Deliveries:  m.nodeStats[n].deliveries.Load(),
			Filtered:    m.nodeStats[n].filtered.Load(),
			ClusterIPIs: m.nodeStats[n].clusterIPIs.Load(),
		}
	}
	return out
}
