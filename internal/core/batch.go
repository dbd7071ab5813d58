// Async batched MM pipeline: an io_uring-style submission ring over the
// transactional interface. Callers enqueue MM ops (mmap, munmap,
// mprotect, madvise, msync, populate) as SQEs on a per-core Batch, then
// Submit executes them all in one pass: the ops are sorted by virtual
// address and coalesced — adjacent or overlapping ranges merge into one
// transaction, so the locking protocol (BRAVO reader/writer or
// RCU+MCS+DFS) runs once per merged subtree instead of once per op —
// and every transaction's deferred flush records accumulate into a
// single TLB fan-out at batch commit (riding the node-batched
// ShootdownRanges). Completion is precise: each SQE gets a CQE carrying
// its own error, so a partial-batch failure names exactly the ops to
// retry.
//
// Unlike the one-op-per-call syscalls, Submit does not run the OOM
// retry loop around individual ops: an op that fails with
// ErrOutOfMemory unwinds itself (the bodies keep the single-op unwind
// contract) and reports through its CQE; the caller decides whether to
// resubmit. Ops within a coalesced group execute in enqueue order;
// groups execute in ascending VA order, which is indistinguishable from
// enqueue order because distinct groups touch disjoint ranges.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
)

// BatchKind selects the MM operation of one SQE.
type BatchKind uint8

const (
	// BatchMmap marks a range virtually allocated (anonymous).
	BatchMmap BatchKind = iota
	// BatchMunmap releases a range.
	BatchMunmap
	// BatchMprotect changes a range's permissions.
	BatchMprotect
	// BatchMadvise drops a range's physical pages (MADV_DONTNEED).
	BatchMadvise
	// BatchMsync writes back a range's dirty shared file pages.
	BatchMsync
	// BatchPopulate pre-faults a range's anonymous pages.
	BatchPopulate
)

// String names the op kind.
func (k BatchKind) String() string {
	switch k {
	case BatchMmap:
		return "mmap"
	case BatchMunmap:
		return "munmap"
	case BatchMprotect:
		return "mprotect"
	case BatchMadvise:
		return "madvise"
	case BatchMsync:
		return "msync"
	case BatchPopulate:
		return "populate"
	}
	return "?"
}

// BatchSQE is one submission-queue entry. Entries are built by the
// Batch's enqueue methods, which validate arguments up front so Submit
// only sees well-formed ranges.
type BatchSQE struct {
	Kind  BatchKind
	VA    arch.Vaddr
	Size  uint64
	Perm  arch.Perm
	Flags mm.Flags

	// ring marks a VA the batch allocated at enqueue time (Mmap); a
	// failed op must hand it back to the allocator after commit.
	ring bool
	// checkExists makes the mmap fail on collision (MmapFixed).
	checkExists bool
}

// BatchCQE is one completion-queue entry: the op's identity and its
// outcome. CQE i corresponds to the i-th enqueued SQE.
type BatchCQE struct {
	Kind BatchKind
	VA   arch.Vaddr
	Size uint64
	Err  error
}

// Batch is a per-core submission ring. It is not safe for concurrent
// use — like a per-thread io_uring, each core submits on its own ring.
type Batch struct {
	a    *AddrSpace
	core int
	sq   []BatchSQE
}

// NewBatch creates an empty submission ring for core.
func (a *AddrSpace) NewBatch(core int) *Batch {
	return &Batch{a: a, core: core}
}

// Pending reports the enqueued-but-unsubmitted op count.
func (b *Batch) Pending() int { return len(b.sq) }

// Mmap enqueues an anonymous mmap. The virtual range is allocated now —
// so later SQEs in the same batch can target it — and returned; the
// mapping itself is established at Submit. If the op then fails, the
// range is handed back to the allocator and the CQE carries the error.
func (b *Batch) Mmap(size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	if err := b.a.checkAlive(); err != nil {
		return 0, err
	}
	size = alignSize(size, fl)
	va, err := b.a.valloc.Alloc(b.core, size)
	if err != nil {
		return 0, err
	}
	b.a.trackVA(va, size)
	b.sq = append(b.sq, BatchSQE{Kind: BatchMmap, VA: va, Size: size, Perm: perm, Flags: fl, ring: true})
	return va, nil
}

// MmapFixed enqueues an anonymous mmap at an exact address, failing on
// collision at Submit.
func (b *Batch) MmapFixed(va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	size = alignSize(size, fl)
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	b.sq = append(b.sq, BatchSQE{Kind: BatchMmap, VA: va, Size: size, Perm: perm, Flags: fl, checkExists: true})
	return nil
}

func (b *Batch) enqueue(kind BatchKind, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	b.sq = append(b.sq, BatchSQE{Kind: kind, VA: va, Size: size, Perm: perm})
	return nil
}

// Munmap enqueues an unmap of [va, va+size).
func (b *Batch) Munmap(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchMunmap, va, size, 0)
}

// Mprotect enqueues a permission change on [va, va+size).
func (b *Batch) Mprotect(va arch.Vaddr, size uint64, perm arch.Perm) error {
	return b.enqueue(BatchMprotect, va, size, perm)
}

// Madvise enqueues a MADV_DONTNEED-style page drop on [va, va+size).
func (b *Batch) Madvise(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchMadvise, va, size, 0)
}

// Msync enqueues a dirty shared-file writeback of [va, va+size).
func (b *Batch) Msync(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchMsync, va, size, 0)
}

// Populate enqueues a pre-fault of the anonymous pages of [va, va+size).
func (b *Batch) Populate(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchPopulate, va, size, 0)
}

// batchGroup is one coalesced run of SQEs whose ranges overlap or abut:
// one transaction covers them all.
type batchGroup struct {
	lo, hi arch.Vaddr
	ops    []int // SQE indices, restored to enqueue order
}

// Submit executes every enqueued op and returns one CQE per SQE, in
// enqueue order. Ops are grouped by coalescing sorted ranges; each
// group runs under a single transaction, and all groups' deferred
// shootdowns and frame frees commit together — at most one TLB fan-out
// for the whole batch. The ring is left empty, ready for reuse.
func (b *Batch) Submit() []BatchCQE {
	n := len(b.sq)
	if n == 0 {
		return nil
	}
	a := b.a
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	a.m.OpTick(b.core)
	cnt := &a.batch
	cnt.batches.Add(1)
	cnt.ops.Add(uint64(n))
	for {
		cur := cnt.maxRingDepth.Load()
		if int64(n) <= cur || cnt.maxRingDepth.CompareAndSwap(cur, int64(n)) {
			break
		}
	}

	groups := b.coalesce()
	cqes := make([]BatchCQE, n)
	var d deferredOps
	for gi := range groups {
		g := &groups[gi]
		c, err := a.Lock(b.core, g.lo, g.hi)
		if err != nil {
			for _, i := range g.ops {
				e := &b.sq[i]
				cqes[i] = BatchCQE{Kind: e.Kind, VA: e.VA, Size: e.Size, Err: err}
			}
			continue
		}
		for _, i := range g.ops {
			e := &b.sq[i]
			cqes[i] = BatchCQE{Kind: e.Kind, VA: e.VA, Size: e.Size, Err: b.apply(c, e)}
		}
		c.closeInto(&d)
	}
	emitted := a.commitDeferred(b.core, &d)

	cnt.groups.Add(uint64(len(groups)))
	cnt.coalescedLocks.Add(uint64(n - len(groups)))
	cnt.shootdowns.Add(uint64(emitted))
	cnt.flushRanges.Add(uint64(len(d.flush)))
	if d.txFlushed > emitted {
		cnt.coalescedFlushes.Add(uint64(d.txFlushed - emitted))
	}

	// Post-commit bookkeeping, after the translations are provably dead:
	// successful unmaps retire their reverse-map records and recycle
	// exactly-matching VA ranges; failed ring-allocated mmaps hand their
	// range back.
	for i := range cqes {
		e := &b.sq[i]
		switch {
		case e.Kind == BatchMunmap && cqes[i].Err == nil:
			a.munmapFinish(b.core, e.VA, e.Size)
		case e.Kind == BatchMmap && e.ring && cqes[i].Err != nil:
			a.untrackVA(e.VA)
			a.valloc.Free(b.core, e.VA, e.Size)
		}
	}
	b.sq = b.sq[:0]
	return cqes
}

// coalesce sorts the SQEs by range start and merges overlapping or
// adjacent ranges into groups, restoring enqueue order within each
// group (ops on overlapping ranges do not commute; disjoint groups do).
func (b *Batch) coalesce() []batchGroup {
	idx := make([]int, len(b.sq))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		ex, ey := &b.sq[idx[x]], &b.sq[idx[y]]
		if ex.VA != ey.VA {
			return ex.VA < ey.VA
		}
		return idx[x] < idx[y]
	})
	var groups []batchGroup
	for _, i := range idx {
		e := &b.sq[i]
		lo, hi := e.VA, e.VA+arch.Vaddr(e.Size)
		if len(groups) > 0 && lo <= groups[len(groups)-1].hi {
			g := &groups[len(groups)-1]
			if hi > g.hi {
				g.hi = hi
			}
			g.ops = append(g.ops, i)
			continue
		}
		groups = append(groups, batchGroup{lo: lo, hi: hi, ops: []int{i}})
	}
	for gi := range groups {
		sort.Ints(groups[gi].ops)
	}
	return groups
}

// apply runs one SQE's transactional body under the group cursor.
func (b *Batch) apply(c *RCursor, e *BatchSQE) error {
	a := b.a
	hi := e.VA + arch.Vaddr(e.Size)
	switch e.Kind {
	case BatchMmap:
		if err := a.checkAlive(); err != nil {
			return err
		}
		a.stats.Mmaps.Add(1)
		return a.mmapBody(c, e.VA, e.Size, e.Perm, e.Flags, e.checkExists)
	case BatchMunmap:
		a.stats.Munmaps.Add(1)
		return c.Unmap(e.VA, hi)
	case BatchMprotect:
		a.stats.Mprotects.Add(1)
		return c.Protect(e.VA, hi, e.Perm)
	case BatchMadvise:
		return a.madviseBody(c, e.VA, hi)
	case BatchMsync:
		return a.msyncBody(c, e.VA, hi)
	case BatchPopulate:
		if err := a.checkAlive(); err != nil {
			return err
		}
		return c.PopulateAnon(e.VA, hi)
	}
	return fmt.Errorf("%w: batch kind %d", mm.ErrNotSupported, e.Kind)
}

// batchCounters is the space's cumulative batch-pipeline activity.
type batchCounters struct {
	batches          atomic.Uint64
	ops              atomic.Uint64
	groups           atomic.Uint64
	coalescedLocks   atomic.Uint64
	shootdowns       atomic.Uint64
	flushRanges      atomic.Uint64
	coalescedFlushes atomic.Uint64
	maxRingDepth     atomic.Int64
}

// BatchStats is a snapshot of the batch pipeline's counters.
type BatchStats struct {
	Batches uint64 // Submit calls with at least one op
	Ops     uint64 // SQEs executed
	Groups  uint64 // coalesced transactions actually run
	// CoalescedLocks counts lock-protocol runs saved by range
	// coalescing: ops minus groups.
	CoalescedLocks uint64
	// Shootdowns counts TLB fan-outs emitted at batch commit — at most
	// one per Submit, however many groups carried flushes.
	Shootdowns uint64
	// FlushRanges counts the VA ranges carried by those fan-outs.
	FlushRanges uint64
	// CoalescedFlushes counts fan-outs avoided: transactions that
	// carried flush records minus fan-outs emitted.
	CoalescedFlushes uint64
	// MaxRingDepth is the high-water SQE count of any one Submit.
	MaxRingDepth int
}

// BatchStats snapshots the space's batch-pipeline counters.
func (a *AddrSpace) BatchStats() BatchStats {
	return BatchStats{
		Batches:          a.batch.batches.Load(),
		Ops:              a.batch.ops.Load(),
		Groups:           a.batch.groups.Load(),
		CoalescedLocks:   a.batch.coalescedLocks.Load(),
		Shootdowns:       a.batch.shootdowns.Load(),
		FlushRanges:      a.batch.flushRanges.Load(),
		CoalescedFlushes: a.batch.coalescedFlushes.Load(),
		MaxRingDepth:     int(a.batch.maxRingDepth.Load()),
	}
}
