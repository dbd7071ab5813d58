package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Mmap implements mm.MM: allocate a virtual range and mark it virtually
// allocated (on-demand paging; Figure 8 do_syscall_mmap).
func (a *AddrSpace) Mmap(core int, size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	size = alignSize(size, fl)
	va, err := a.valloc.Alloc(core, size)
	if err != nil {
		return 0, err
	}
	a.trackVA(va, size)
	if err := a.mmapAt(core, va, size, perm, fl, false); err != nil {
		a.untrackVA(va)
		a.valloc.Free(core, va, size)
		return 0, err
	}
	return va, nil
}

// MmapFixed implements mm.MM: map at an exact address, failing on
// collision.
func (a *AddrSpace) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	size = alignSize(size, fl)
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	if err := a.mmapAt(core, va, size, perm, fl, true); err != nil {
		return err
	}
	// Fixed mappings are tracked like allocator-handed ones, so reclaim
	// sweeps, the collapse scanner and OOM victim sizing see them;
	// munmapFinish knows not to recycle a VA the allocator never owned.
	a.trackFixedVA(va, size)
	return nil
}

func alignSize(size uint64, fl mm.Flags) uint64 {
	align := uint64(arch.PageSize)
	if fl&mm.FlagHuge2M != 0 {
		align = arch.SpanBytes(2)
	}
	if fl&mm.FlagHuge1G != 0 {
		align = arch.SpanBytes(3)
	}
	return (size + align - 1) &^ (align - 1)
}

func (a *AddrSpace) mmapAt(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags, checkExists bool) error {
	if err := a.checkAlive(); err != nil {
		return err
	}
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	a.stats.Mmaps.Add(1)
	a.m.OpTick(core)
	// The attempt is a complete transaction that fully unwinds on
	// failure, so the OOM retry path can re-run it after direct reclaim.
	return a.retryOOM(core, func() error {
		return a.mmapAttempt(core, va, size, perm, fl, checkExists)
	})
}

func (a *AddrSpace) mmapAttempt(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags, checkExists bool) error {
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	defer c.Close()
	return a.mmapBody(c, va, size, perm, fl, checkExists)
}

// mmapBody is the transactional work of an anonymous mmap under an
// already-held cursor (the batch layer shares it; the cursor may cover
// a wider coalesced range). It fully unwinds on failure.
func (a *AddrSpace) mmapBody(c *RCursor, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags, checkExists bool) error {
	if checkExists {
		used, err := c.AnyAllocated(va, va+arch.Vaddr(size))
		if err != nil {
			return err
		}
		if used {
			return mm.ErrExists
		}
	}
	s := pt.Status{Kind: pt.StatusPrivateAnon, Perm: perm}
	switch {
	case fl&mm.FlagHuge1G != 0:
		s.HugeLevel = 3
	case fl&mm.FlagHuge2M != 0:
		s.HugeLevel = 2
	}
	if err := c.Mark(va, va+arch.Vaddr(size), s); err != nil {
		// A failed Mark may have marked a prefix; do not leave it behind
		// when the caller frees the VA range back to the allocator.
		_ = c.Unmap(va, va+arch.Vaddr(size))
		return err
	}
	if fl&mm.FlagPopulate != 0 {
		if err := c.PopulateAnon(va, va+arch.Vaddr(size)); err != nil {
			// Mid-population failure (OOM): the caller frees the VA range
			// on error, so a half-populated, still-Marked range would leak
			// frames and resurrect on the range's next tenant. Tear it
			// all down before reporting.
			_ = c.Unmap(va, va+arch.Vaddr(size))
			return err
		}
	}
	return nil
}

// MmapFile implements mm.MM: map size bytes of f from page offset pgoff,
// shared or private (copy-on-write).
func (a *AddrSpace) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	if err := a.checkAlive(); err != nil {
		return 0, err
	}
	t0 := a.stats.EnterKernel()
	size = alignSize(size, 0)
	a.stats.Mmaps.Add(1)
	a.m.OpTick(core)
	va, err := a.valloc.Alloc(core, size)
	if err != nil {
		a.stats.ExitKernel(t0)
		return 0, err
	}
	a.trackVA(va, size)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		a.stats.ExitKernel(t0)
		return 0, err
	}
	kind := pt.StatusPrivateFile
	if shared {
		kind = pt.StatusSharedFile
	}
	err = c.Mark(va, va+arch.Vaddr(size), pt.Status{Kind: kind, Perm: perm, File: f, Off: pgoff})
	c.Close()
	if err != nil {
		a.untrackVA(va)
		a.valloc.Free(core, va, size)
		a.stats.ExitKernel(t0)
		return 0, err
	}
	a.registerFileMapping(f, va, pgoff, size/arch.PageSize, shared)
	a.stats.ExitKernel(t0)
	return va, nil
}

// MmapSharedAnon maps shared anonymous memory by naming its pages with a
// kernel-internal file (§4.5), so fork'd children share writes.
func (a *AddrSpace) MmapSharedAnon(core int, size uint64, perm arch.Perm) (arch.Vaddr, error) {
	size = alignSize(size, 0)
	f := mem.NewFile(a.m.Phys, "[shm]", size)
	return a.MmapFile(core, f, 0, size, perm, true)
}

// Munmap implements mm.MM (Figure 8 do_syscall_munmap).
func (a *AddrSpace) Munmap(core int, va arch.Vaddr, size uint64) error {
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	a.stats.Munmaps.Add(1)
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	err = c.Unmap(va, va+arch.Vaddr(size))
	c.Close()
	if err != nil {
		return err
	}
	a.munmapFinish(core, va, size)
	return nil
}

// munmapFinish is the non-MMU bookkeeping tail of a successful unmap:
// retire reverse-mapping records and recycle an exactly-matching
// allocator-handed VA range. Shared with the batch layer, which runs it
// after batch commit.
func (a *AddrSpace) munmapFinish(core int, va arch.Vaddr, size uint64) {
	a.fileMu.Lock()
	gone := a.pruneFileMappingsLocked(va, va+arch.Vaddr(size))
	owned := a.untrackExactLocked(va, size)
	a.fileMu.Unlock()
	for _, f := range gone {
		f.RemoveMapper(a)
	}
	if owned {
		a.valloc.Free(core, va, size)
	}
}

// Mprotect implements mm.MM.
func (a *AddrSpace) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	a.stats.Mprotects.Add(1)
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Protect(va, va+arch.Vaddr(size), perm)
}

// Msync implements mm.MM: write back dirty shared file pages.
func (a *AddrSpace) Msync(core int, va arch.Vaddr, size uint64) error {
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	defer c.Close()
	return a.msyncBody(c, va, va+arch.Vaddr(size))
}

// msyncBody writes back dirty shared file pages of [lo, hi) under an
// already-held cursor (shared with the batch layer). One pass over the
// locked subtree, resident pages only (metadata entries have nothing to
// write back); runs carry the hardware D bit, so only dirty shared runs
// cost per-page descriptor work.
func (a *AddrSpace) msyncBody(c *RCursor, lo, hi arch.Vaddr) error {
	return c.IterateMapped(lo, hi, func(r Run) error {
		if r.Status.Perm&arch.PermShared == 0 || !r.Dirty {
			return nil
		}
		for i := uint64(0); i < r.Pages; i++ {
			head := a.m.Phys.HeadOf(r.Status.Page + arch.PFN(i))
			d := a.m.Phys.Desc(head)
			if d.RMap.File != nil {
				d.RMap.File.Writeback(d.RMap.Index)
			}
		}
		return nil
	})
}

// PopulateRange pre-faults the anonymous pages of [va, va+size) in one
// transaction — the standalone form of mmap's FlagPopulate, and the
// sequential twin of the batch layer's populate op. Already-resident
// pages are left alone.
func (a *AddrSpace) PopulateRange(core int, va arch.Vaddr, size uint64) error {
	if err := a.checkAlive(); err != nil {
		return err
	}
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	a.m.OpTick(core)
	return a.retryOOM(core, func() error {
		c, err := a.Lock(core, va, va+arch.Vaddr(size))
		if err != nil {
			return err
		}
		defer c.Close()
		return c.PopulateAnon(va, va+arch.Vaddr(size))
	})
}

// Touch implements mm.MM: one simulated user access, faulting as needed.
func (a *AddrSpace) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	_, err := a.translate(core, va, acc)
	return err
}

// Load implements mm.MM.
func (a *AddrSpace) Load(core int, va arch.Vaddr) (b byte, err error) {
	err = a.access(core, va, pt.AccessRead, func(page []byte, off uint64) {
		b = page[off]
	})
	return b, err
}

// Store implements mm.MM.
func (a *AddrSpace) Store(core int, va arch.Vaddr, b byte) error {
	return a.access(core, va, pt.AccessWrite, func(page []byte, off uint64) {
		page[off] = b
	})
}

// access performs one simulated user data access. Translation and the
// byte access happen inside a single RCU read-side critical section:
// on hardware, an access that has passed translation retires before
// the unmapping core's shootdown IPI is acknowledged, so the frame
// cannot be recycled underneath it. The read section models exactly
// that window — shootAndFree routes data-frame frees through the RCU
// monitor, so a frame whose mapping this core could have observed
// stays allocated until the access completes. The page-fault path runs
// outside the section (it takes the address-space lock and must not
// stall grace periods).
func (a *AddrSpace) access(core int, va arch.Vaddr, acc pt.Access, fn func(page []byte, off uint64)) error {
	if va >= arch.MaxVaddr {
		return errSegv
	}
	page := arch.PageAlignDown(va)
	for tries := 0; tries < 64; tries++ {
		a.m.RCU.ReadLock(core)
		tr, ok := a.m.TLB.Lookup(core, a.asid, page)
		if !ok || !tr.Perm.Contains(acc.Needs()) {
			if tr, ok = a.tree.WalkAccess(va, acc); ok {
				// tr carries the leaf level from the walk; huge leaves land
				// in the TLB's span-indexed array so every page of the span
				// hits from this one fill.
				a.m.TLB.Insert(core, a.asid, page, tr)
				if tr.Level == 1 {
					// A TLB fill is the NUMA balancer's access sample.
					a.m.Phys.NoteAccess(core, tr.PFN)
				}
			}
		}
		if ok {
			fn(a.m.Phys.DataPage(tr.PFN), uint64(va&(arch.PageSize-1)))
			a.m.RCU.ReadUnlock(core)
			return nil
		}
		a.m.RCU.ReadUnlock(core)
		if err := a.pageFault(core, va, acc); err != nil {
			return err
		}
	}
	return fmt.Errorf("core: translation livelock at %#x", va)
}

// translate is the simulated access path: TLB lookup, hardware walk,
// page fault, retry.
func (a *AddrSpace) translate(core int, va arch.Vaddr, acc pt.Access) (pt.Translation, error) {
	if va >= arch.MaxVaddr {
		return pt.Translation{}, errSegv
	}
	page := arch.PageAlignDown(va)
	for tries := 0; tries < 64; tries++ {
		if tr, ok := a.m.TLB.Lookup(core, a.asid, page); ok && tr.Perm.Contains(acc.Needs()) {
			return tr, nil
		}
		if tr, ok := a.tree.WalkAccess(va, acc); ok {
			a.m.TLB.Insert(core, a.asid, page, tr)
			if tr.Level == 1 {
				a.m.Phys.NoteAccess(core, tr.PFN)
			}
			return tr, nil
		}
		if err := a.pageFault(core, va, acc); err != nil {
			return pt.Translation{}, err
		}
	}
	return pt.Translation{}, fmt.Errorf("core: translation livelock at %#x", va)
}

// pageFault is the Figure-8 handler with the hardened OOM unwind: a
// fault that fails for lack of frames closes its transaction, runs
// direct reclaim from syscall context (no locks held) and re-faults,
// bounded by the retry budget.
func (a *AddrSpace) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	if err := a.checkAlive(); err != nil {
		return err
	}
	return a.retryOOM(core, func() error {
		return a.pageFaultOnce(core, va, acc)
	})
}

// pageFaultOnce runs one whole fault inside one transaction.
func (a *AddrSpace) pageFaultOnce(core int, va arch.Vaddr, acc pt.Access) error {
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	a.stats.PageFaults.Add(1)
	a.m.OpTick(core)
	page := arch.PageAlignDown(va)
	c, err := a.Lock(core, page, page+arch.PageSize)
	if err != nil {
		return err
	}
	st, err := c.Query(page)
	if err != nil {
		c.Close()
		return err
	}
	if st.Kind == pt.StatusPrivateAnon && st.HugeLevel >= 2 {
		// A huge mapping needs a transaction over the whole span:
		// restart with a wider cursor and re-query, since the page may
		// have changed while no lock was held.
		c.Close()
		span := arch.SpanBytes(int(st.HugeLevel))
		base := page &^ arch.Vaddr(span-1)
		wide, err := a.Lock(core, base, base+arch.Vaddr(span))
		if err != nil {
			return err
		}
		defer wide.Close()
		if st, err = wide.Query(page); err != nil {
			return err
		}
		return a.faultIn(core, wide, page, acc, st)
	}
	defer c.Close()
	return a.faultIn(core, c, page, acc, st)
}

// faultIn services one page, whose status st was queried under the
// already-held cursor c.
func (a *AddrSpace) faultIn(core int, c *RCursor, page arch.Vaddr, acc pt.Access, st pt.Status) error {
	switch st.Kind {
	case pt.StatusMapped:
		return a.faultMapped(core, c, page, acc, st)

	case pt.StatusPrivateAnon:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		if st.HugeLevel >= 2 {
			if err := a.faultHuge(core, c, page, st); err == nil {
				return nil
			}
			// Fall back to 4-KiB pages when no contiguous block exists.
		}
		frame, err := a.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
		return c.MapKeyed(page, frame, 1, st.Perm, st.Key)

	case pt.StatusPrivateFile:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		fpfn, err := st.File.GetPage(core, st.Off)
		if err != nil {
			return err
		}
		if acc == pt.AccessWrite {
			// Write fault on a private file page: copy immediately.
			copyPFN, err := a.copyPage(core, fpfn)
			if err != nil {
				a.m.Phys.Put(core, fpfn)
				return err
			}
			a.m.Phys.Put(core, fpfn)
			a.stats.COWBreaks.Add(1)
			return c.MapKeyed(page, copyPFN, 1, st.Perm&^arch.PermShared, st.Key)
		}
		hw := st.Perm &^ arch.PermShared
		if hw&arch.PermWrite != 0 {
			hw = hw&^arch.PermWrite | arch.PermCOW
		}
		return c.MapKeyed(page, fpfn, 1, hw, st.Key)

	case pt.StatusSharedFile, pt.StatusSharedAnon:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		fpfn, err := st.File.GetPage(core, st.Off)
		if err != nil {
			return err
		}
		return c.MapKeyed(page, fpfn, 1, st.Perm|arch.PermShared, st.Key)

	case pt.StatusSwapped:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		a.stats.SwapIns.Add(1)
		frame, err := a.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
		st.Dev.Read(st.Block, a.m.Phys.Data(frame))
		st.Dev.FreeBlock(st.Block)
		return c.MapKeyed(page, frame, 1, st.Perm, st.Key)

	default:
		return errSegv
	}
}

// faultMapped handles faults on already-mapped pages: COW breaks,
// permission violations, and spurious (stale-TLB) faults.
func (a *AddrSpace) faultMapped(core int, c *RCursor, page arch.Vaddr, acc pt.Access, st pt.Status) error {
	perm := st.Perm
	if acc == pt.AccessWrite && !perm.Contains(arch.PermWrite) {
		if perm&arch.PermCOW == 0 {
			return errSegv
		}
		// Copy-on-write break (Figure 8).
		a.stats.COWBreaks.Add(1)
		head := a.m.Phys.HeadOf(st.Page)
		d := a.m.Phys.Desc(head)
		if d.MapCount.Load() == 1 && d.Kind == mem.KindAnon {
			// Sole mapper of an anonymous page: no need to copy, just
			// upgrade in place.
			a.m.Phys.Get(head) // Map consumes one reference
			newPerm := perm&^arch.PermCOW | arch.PermWrite
			if err := c.MapKeyed(page, st.Page, 1, newPerm, st.Key); err != nil {
				return err
			}
		} else {
			copyPFN, err := a.copyPage(core, st.Page)
			if err != nil {
				return err
			}
			newPerm := perm&^(arch.PermCOW|arch.PermShared) | arch.PermWrite
			if err := c.MapKeyed(page, copyPFN, 1, newPerm, st.Key); err != nil {
				return err
			}
			// Readers elsewhere must switch to the copy... no: readers
			// keep the old (still correct pre-write) page only until
			// this shootdown lands, which Close performs synchronously.
			c.needSync = true
		}
		a.m.TLB.FlushLocal(core, a.asid, page)
		return nil
	}
	if !perm.Contains(acc.Needs()) {
		return errSegv
	}
	// Spurious fault: the PTE satisfies the access; a stale TLB entry
	// (e.g. after mprotect elsewhere) caused it. Flush locally and retry.
	a.stats.SoftFaults.Add(1)
	a.m.TLB.FlushLocal(core, a.asid, page)
	return nil
}

// faultHuge maps a whole huge span in one fault when the region was
// mmap'd with a huge-page flag and a contiguous block is available.
func (a *AddrSpace) faultHuge(core int, c *RCursor, page arch.Vaddr, st pt.Status) error {
	level := int(st.HugeLevel)
	span := arch.SpanBytes(level)
	base := page &^ arch.Vaddr(span-1)
	if base < c.lo || base+arch.Vaddr(span) > c.hi {
		// The cursor only covers the faulting page; a huge mapping
		// needs a transaction over the whole span.
		return fmt.Errorf("core: huge fault needs wider cursor")
	}
	order := (level - 1) * arch.IndexBits
	frame, err := a.m.Phys.AllocFrames(core, order, mem.KindAnon)
	if err != nil {
		return err
	}
	return c.MapKeyed(base, frame, level, st.Perm, st.Key)
}

// copyPage allocates a fresh anonymous frame holding a copy of src's
// contents.
func (a *AddrSpace) copyPage(core int, src arch.PFN) (arch.PFN, error) {
	dst, err := a.m.Phys.AllocFrame(core, mem.KindAnon)
	if err != nil {
		return 0, err
	}
	copy(a.m.Phys.Data(dst), a.m.Phys.DataPage(src))
	return dst, nil
}

// logicalPerm converts stored permissions to the user-visible ones: a
// COW page is logically writable.
func logicalPerm(p arch.Perm) arch.Perm {
	if p&arch.PermCOW != 0 {
		p |= arch.PermWrite
	}
	return p
}

// trackVA bookkeeping: remember allocator-handed ranges so Munmap can
// recycle them (exact-match only; partial unmaps just retire the range).
func (a *AddrSpace) trackVA(va arch.Vaddr, size uint64) {
	a.fileMu.Lock()
	if a.vaSizes == nil {
		a.vaSizes = make(map[arch.Vaddr]uint64)
	}
	a.vaSizes[va] = size
	a.fileMu.Unlock()
}

// untrackExactLocked retires the tracked range at va if it is exactly
// size bytes long, and reports whether the allocator owns its VA, i.e.
// whether the caller must free it. Fixed mappings are tracked (for
// reclaim and the collapse scanner) but their VAs were never the
// allocator's to hand out — PerCoreVA routes frees by address and owns
// only its own arenas. The check and the delete share the caller's
// fileMu section, so of two racing unmaps of one range only one frees
// it. The caller holds fileMu.
func (a *AddrSpace) untrackExactLocked(va arch.Vaddr, size uint64) (owned bool) {
	if sz, ok := a.vaSizes[va]; !ok || sz != size {
		return false
	}
	owned = !a.fixedVAs[va]
	delete(a.vaSizes, va)
	delete(a.fixedVAs, va)
	return owned
}

func (a *AddrSpace) untrackVA(va arch.Vaddr) (fixed bool) {
	a.fileMu.Lock()
	fixed = a.fixedVAs[va]
	delete(a.vaSizes, va)
	delete(a.fixedVAs, va)
	a.fileMu.Unlock()
	return fixed
}

// trackFixedVA records a MmapFixed range: visible to reclaim and the
// collapse scanner like any tracked range, but never recycled into the
// VA allocator on unmap.
func (a *AddrSpace) trackFixedVA(va arch.Vaddr, size uint64) {
	a.fileMu.Lock()
	a.vaSizes[va] = size
	a.fixedVAs[va] = true
	a.fileMu.Unlock()
}
