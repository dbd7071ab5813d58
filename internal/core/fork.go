package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Fork implements mm.MM: clone the address space with copy-on-write
// (§4.3). The whole parent space is locked in one transaction — this is
// the "operation that must enumerate the address space" the paper calls
// CortenMM's worst case (§6.2): with no VMA list, the walk is over the
// page table itself.
func (a *AddrSpace) Fork(core int) (mm.MM, error) {
	if err := a.checkAlive(); err != nil {
		return nil, err
	}
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	a.stats.Forks.Add(1)
	a.m.OpTick(core)
	// forkOnce fully unwinds on failure (the half-built child is
	// destroyed), so the OOM retry path can re-run it after reclaim.
	var child *AddrSpace
	err := a.retryOOM(core, func() error {
		var ferr error
		child, ferr = a.forkOnce(core)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return child, nil
}

func (a *AddrSpace) forkOnce(core int) (*AddrSpace, error) {
	child, err := New(Options{
		Machine:   a.m,
		ISA:       a.isa,
		Protocol:  a.proto,
		PerCoreVA: a.perCore,
		SwapDev:   a.swapDev,
	})
	if err != nil {
		return nil, err
	}
	child.valloc = a.valloc.Clone()

	c, err := a.Lock(core, 0, arch.MaxVaddr)
	if err != nil {
		child.Destroy(core)
		return nil, err
	}
	files := make(map[*mem.File]bool)
	err = a.forkCopy(core, c, child, a.tree.Root, child.tree.Root, arch.Levels, files)
	if err != nil {
		c.Close()
		child.Destroy(core)
		return nil, err
	}
	// Parent PTEs were write-protected for COW; every core must observe
	// that before fork returns.
	c.flushAll = true
	c.needSync = true
	c.Close()

	// Clone the non-MMU bookkeeping.
	a.fileMu.Lock()
	child.fileMaps = append(child.fileMaps, a.fileMaps...)
	for va, sz := range a.vaSizes {
		child.vaSizes[va] = sz
	}
	for va := range a.fixedVAs {
		child.fixedVAs[va] = true
	}
	a.fileMu.Unlock()
	for _, fm := range child.fileMaps {
		fm.file.AddMapper(child)
	}
	return child, nil
}

// forkCopy replicates the subtree at src (parent, locked by cursor c)
// into dst (child, private to this call). Private mappings become COW in
// both trees; shared mappings alias the same frames; metadata statuses
// are copied with file references collected for rmap registration.
func (a *AddrSpace) forkCopy(core int, c *RCursor, child *AddrSpace, src, dst arch.PFN, level int, files map[*mem.File]bool) error {
	t, isa := a.tree, a.isa
	ct := child.tree
	for idx := 0; idx < arch.PTEntries; idx++ {
		if s := t.GetMeta(src, idx); s.Kind != pt.StatusInvalid {
			if s.Kind == pt.StatusSwapped {
				// Swap entries are not duplicated: swap-in on either
				// side would race over one block. Bring the page back
				// in the parent first.
				return fmt.Errorf("core: fork over swapped page unsupported; swap in first")
			}
			ct.SetMeta(dst, idx, s)
			if s.File != nil {
				files[s.File] = true
			}
		}
		pte := t.LoadPTE(src, idx)
		if !isa.IsPresent(pte) {
			continue
		}
		if isa.IsLeaf(pte, level) {
			perm := isa.PermOf(pte)
			frame := isa.PFNOf(pte)
			head := a.m.Phys.HeadOf(frame)
			if perm&arch.PermShared == 0 && perm&arch.PermWrite != 0 {
				// Private writable page: write-protect and mark COW in
				// the parent (§4.3: shared bit + writable bit).
				newPerm := perm&^arch.PermWrite | arch.PermCOW
				t.StorePTE(src, idx, isa.WithPerm(pte, newPerm, level))
				pte = t.LoadPTE(src, idx)
				perm = newPerm
			}
			childPTE := isa.EncodeLeaf(frame, perm, level)
			if key := isa.ProtKeyOf(pte); key != 0 {
				childPTE = isa.WithProtKey(childPTE, key)
			}
			ct.SetPTE(dst, idx, childPTE)
			a.m.Phys.Get(head)
			d := a.m.Phys.Desc(head)
			d.MapCount.Add(1)
			if d.RMap.File != nil {
				files[d.RMap.File] = true
			}
			continue
		}
		srcChild := isa.PFNOf(pte)
		dstChild, err := ct.AllocPTPage(core, level-1)
		if err != nil {
			return err
		}
		ct.SetPTE(dst, idx, isa.EncodeTable(dstChild))
		if err := a.forkCopy(core, c, child, srcChild, dstChild, level-1, files); err != nil {
			return err
		}
	}
	return nil
}

// Destroy implements mm.MM: tear down the address space. Teardown is
// exclusive by contract (the "process" has exited), so it walks the
// tree directly instead of paying for a whole-space transaction —
// exactly what exit/exec does in the paper's evaluation (§6.2).
// Idempotent. The space is unregistered from its reclaim manager first,
// so no later sweep or OOM victim scan can walk the torn-down tree.
//
// With ASID recycling (the machine default), teardown issues no TLB
// shootdown at all: the dead translations are unreachable (no lookup
// ever uses this ASID again) and the allocator's rollover flushes every
// core before the slot is reissued — recycle-implies-flushed. That is
// the whole point of the bounded allocator: thousands of short-lived
// spaces stop paying an all-core fan-out each, and stop conservatively
// killing 1/64 of every other space's TLB fills per teardown. In
// monotonic compat mode the eager flush-all is still required, because
// nothing else ever invalidates the dead entries' epoch cells.
func (a *AddrSpace) Destroy(core int) {
	if !a.destroyed.CompareAndSwap(false, true) {
		return
	}
	if rm := a.reclaim; rm != nil {
		rm.Unregister(a)
	}
	if cm := a.compaction.Load(); cm != nil {
		cm.Unregister(a)
	}
	// In-flight migration-hook operations saw destroyed==false before
	// locking; wait them out so the tree teardown below never races a
	// migration transaction (see migrateEnter/drainMigrants).
	a.drainMigrants()
	if !a.m.ASIDRecycling() {
		a.m.TLB.ShootdownAllSync(core, a.asid)
	}
	a.dropFileMappings()
	a.tree.Destroy(core,
		func(pte uint64, level int) {
			head := a.m.Phys.HeadOf(a.isa.PFNOf(pte))
			a.m.Phys.Desc(head).MapCount.Add(-1)
			a.m.Phys.Put(core, head)
		},
		func(s pt.Status) {
			if s.Kind == pt.StatusSwapped && s.Dev != nil {
				s.Dev.FreeBlock(s.Block)
			}
		})
	a.fileMu.Lock()
	a.vaSizes = make(map[arch.Vaddr]uint64)
	a.fixedVAs = make(map[arch.Vaddr]bool)
	a.fileMu.Unlock()
	a.m.FreeASID(a.asid)
}

// RMapUnmap implements mem.RMapTarget: unmap every mapping of the given
// file page in this space. The fileMaps records are hints; each
// candidate address is re-checked inside a transaction, as §4.5 requires
// ("access to the page table via reverse mapping always goes through the
// transactional interface").
func (a *AddrSpace) RMapUnmap(f *mem.File, index uint64) {
	for _, va := range a.lookupFileVAs(f, index) {
		c, err := a.Lock(0, va, va+arch.PageSize)
		if err != nil {
			continue
		}
		st, err := c.Query(va)
		if err == nil && st.Kind == pt.StatusMapped {
			head := a.m.Phys.HeadOf(st.Page)
			d := a.m.Phys.Desc(head)
			if d.RMap.File == f && d.RMap.Index == index {
				c.needSync = true // the page is about to be reclaimed
				_ = c.Unmap(va, va+arch.PageSize)
				// Restore the not-resident status so a later access
				// faults the page back in instead of segfaulting.
				kind := pt.StatusPrivateFile
				if st.Perm&arch.PermShared != 0 {
					kind = pt.StatusSharedFile
				}
				perm := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared)
				_ = c.Mark(va, va+arch.PageSize, pt.Status{
					Kind: kind, Perm: perm, File: f, Off: index, Key: st.Key,
				})
			}
		}
		c.Close()
	}
}

// SwapOut writes resident private anonymous pages in [va, va+size) to
// the block device and replaces their mappings with Swapped statuses.
// Shared and COW pages are skipped. Returns the number of pages swapped.
func (a *AddrSpace) SwapOut(core int, va arch.Vaddr, size uint64) (int, error) {
	if a.swapDev == nil {
		return 0, fmt.Errorf("%w: no swap device configured", mm.ErrNotSupported)
	}
	if err := arch.CheckCanonical(va, size); err != nil {
		return 0, fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.needSync = true // the frames are reused immediately after

	// One pass collects candidate runs; the swap mutates the tree, so it
	// happens after the iteration. Huge runs are skipped (the swap path
	// works at 4-KiB granularity, like the reclaim clock).
	var runs []Run
	err = c.IterateMapped(va, va+arch.Vaddr(size), func(r Run) error {
		if r.Status.Perm&(arch.PermShared|arch.PermCOW) == 0 && r.Status.HugeLevel < 2 {
			runs = append(runs, r)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range runs {
		for i := uint64(0); i < r.Pages; i++ {
			page := r.VA + arch.Vaddr(i*arch.PageSize)
			pfn := r.Status.Page + arch.PFN(i)
			head := a.m.Phys.HeadOf(pfn)
			d := a.m.Phys.Desc(head)
			if d.Kind != mem.KindAnon || d.MapCount.Load() != 1 {
				continue // only exclusively owned anonymous pages
			}
			block := a.swapDev.AllocBlock()
			if err := a.swapDev.Write(block, a.m.Phys.DataPage(pfn)); err != nil {
				a.swapDev.FreeBlock(block)
				return n, err
			}
			if err := c.Unmap(page, page+arch.PageSize); err != nil {
				a.swapDev.FreeBlock(block)
				return n, err
			}
			err := c.Mark(page, page+arch.PageSize, pt.Status{
				Kind: pt.StatusSwapped, Perm: r.Status.Perm, Dev: a.swapDev, Block: block, Key: r.Status.Key,
			})
			if err != nil {
				a.swapDev.FreeBlock(block)
				return n, err
			}
			a.stats.SwapOuts.Add(1)
			n++
		}
	}
	return n, nil
}
