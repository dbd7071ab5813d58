package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Mremap resizes the mapping at oldVA (MREMAP_MAYMOVE semantics):
// shrinking unmaps the tail in place; growing allocates a fresh range
// and *moves* every page there — PTEs, metadata (including swap
// entries), frames and their reference counts travel without copying
// data. The move runs under two simultaneously held transactions, one
// per range, acquired in address order so concurrent Mremaps cannot
// deadlock against each other.
func (a *AddrSpace) Mremap(core int, oldVA arch.Vaddr, oldSize, newSize uint64) (arch.Vaddr, error) {
	if err := arch.CheckCanonical(oldVA, oldSize); err != nil {
		return 0, fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	newSize = (newSize + arch.PageSize - 1) &^ (arch.PageSize - 1)
	if newSize == 0 {
		return 0, fmt.Errorf("%w: zero new size", mm.ErrBadRange)
	}
	defer a.stats.ExitKernel(a.stats.EnterKernel())
	a.m.OpTick(core)

	if newSize <= oldSize {
		// Shrink in place.
		if newSize < oldSize {
			c, err := a.Lock(core, oldVA+arch.Vaddr(newSize), oldVA+arch.Vaddr(oldSize))
			if err != nil {
				return 0, err
			}
			err = c.Unmap(oldVA+arch.Vaddr(newSize), oldVA+arch.Vaddr(oldSize))
			c.Close()
			if err != nil {
				return 0, err
			}
		}
		a.fileMu.Lock()
		if sz, ok := a.vaSizes[oldVA]; ok && sz == oldSize {
			a.vaSizes[oldVA] = newSize
		}
		a.fileMu.Unlock()
		return oldVA, nil
	}

	// Grow: move to a fresh range.
	newVA, err := a.valloc.Alloc(core, newSize)
	if err != nil {
		return 0, err
	}
	if overlap(oldVA, oldSize, newVA, newSize) {
		a.valloc.Free(core, newVA, newSize)
		return 0, fmt.Errorf("%w: allocator returned overlapping range", mm.ErrBadRange)
	}
	a.trackVA(newVA, newSize)

	// One transaction spans both ranges: its covering page is their
	// lowest common ancestor. Two separate cursors could self-deadlock
	// when one covering page contains the other; a single wider lock is
	// also what Linux's mremap does (the mmap_lock writer).
	lo := minVA(oldVA, newVA)
	hi := maxVA(oldVA+arch.Vaddr(oldSize), newVA+arch.Vaddr(newSize))
	c, err := a.Lock(core, lo, hi)
	if err != nil {
		return 0, err
	}
	// The old range's VAs are recycled immediately after; their
	// translations must die everywhere before the move returns.
	c.needSync = true

	// One pass enumerates the old range as runs; the moves mutate both
	// ranges, so they happen after the iteration. tailPerm — the
	// permission for the newly grown pages — comes from the first
	// allocated run (Linux grows the mapping with the VMA's protection;
	// our analog is the recorded or mapped permission).
	var runs []Run
	if err := c.Iterate(oldVA, oldVA+arch.Vaddr(oldSize), func(r Run) error {
		runs = append(runs, r)
		return nil
	}); err != nil {
		c.Close()
		return 0, err
	}
	tailPerm := arch.PermRW
	if len(runs) > 0 {
		tailPerm = logicalPerm(runs[0].Status.Perm) &^ (arch.PermCOW | arch.PermShared)
	}
	for _, r := range runs {
		dst := newVA + (r.VA - oldVA)
		var err error
		switch {
		case r.Status.Kind == pt.StatusMapped && r.Status.HugeLevel >= 2:
			// Huge leaves move via split paths, which TakePage refuses.
			err = fmt.Errorf("core: page vanished during mremap")
		case r.Status.Kind == pt.StatusMapped:
			for i := uint64(0); i < r.Pages && err == nil; i++ {
				src := r.VA + arch.Vaddr(i*arch.PageSize)
				frame, perm, key, ok := c.TakePage(src)
				if !ok {
					err = fmt.Errorf("core: page vanished during mremap")
				} else {
					err = c.PlacePage(dst+arch.Vaddr(i*arch.PageSize), frame, perm, key)
				}
			}
		case r.Status.Kind == pt.StatusSwapped:
			// Swap entries move as metadata; clear the source without
			// releasing the block — the destination keeps it. (Swap runs
			// are single pages: every block is distinct.)
			if err = c.Mark(dst, dst+arch.Vaddr(r.Pages*arch.PageSize), r.Status); err == nil {
				for i := uint64(0); i < r.Pages && err == nil; i++ {
					err = c.clearMetaAt(r.VA + arch.Vaddr(i*arch.PageSize))
				}
			}
		default:
			// Not-resident virtual/file state: one Mark per run at the
			// destination, one wipe at the source. Mark with Invalid
			// only drops metadata here — the run holds no mappings and
			// no swap blocks.
			if err = c.Mark(dst, dst+arch.Vaddr(r.Pages*arch.PageSize), r.Status); err == nil {
				err = c.Mark(r.VA, r.End(), pt.Status{})
			}
		}
		if err != nil {
			c.Close()
			return 0, err
		}
	}
	// The grown tail is fresh on-demand memory.
	if err := c.Mark(newVA+arch.Vaddr(oldSize), newVA+arch.Vaddr(newSize),
		pt.Status{Kind: pt.StatusPrivateAnon, Perm: tailPerm}); err != nil {
		c.Close()
		return 0, err
	}
	c.Close()

	// Retire the old range's address space.
	a.fileMu.Lock()
	owned := a.untrackExactLocked(oldVA, oldSize)
	a.fileMu.Unlock()
	if owned {
		a.valloc.Free(core, oldVA, oldSize)
	}
	return newVA, nil
}

func overlap(aVA arch.Vaddr, aSz uint64, bVA arch.Vaddr, bSz uint64) bool {
	return aVA < bVA+arch.Vaddr(bSz) && bVA < aVA+arch.Vaddr(aSz)
}

// TakePage detaches the mapped page at va, returning its frame with the
// reference and mapcount still held — the caller must PlacePage it (or
// release it manually). The translation is queued for invalidation.
func (c *RCursor) TakePage(va arch.Vaddr) (frame arch.PFN, perm arch.Perm, key arch.ProtKey, ok bool) {
	t, isa := c.a.tree, c.a.isa
	pfn, level, base := c.root, c.rootLevel, c.rootBase
	for {
		span := arch.SpanBytes(level)
		idx := int(uint64(va-base) / span)
		pte := t.LoadPTE(pfn, idx)
		if !isa.IsPresent(pte) {
			return 0, 0, 0, false
		}
		if isa.IsLeaf(pte, level) {
			if level != 1 {
				return 0, 0, 0, false // huge leaves move via split paths
			}
			t.SetPTE(pfn, idx, 0)
			c.noteFlush(va, 1)
			return isa.PFNOf(pte), isa.PermOf(pte), isa.ProtKeyOf(pte), true
		}
		pfn, level, base = isa.PFNOf(pte), level-1, base+arch.Vaddr(uint64(idx)*span)
	}
}

// PlacePage installs a frame detached by TakePage at va; reference and
// mapcount were never dropped, so unlike Map it takes no new ones.
func (c *RCursor) PlacePage(va arch.Vaddr, frame arch.PFN, perm arch.Perm, key arch.ProtKey) error {
	if err := c.checkRange(va, va+arch.PageSize); err != nil {
		return err
	}
	t, isa := c.a.tree, c.a.isa
	pfn, level, base := c.root, c.rootLevel, c.rootBase
	for level > 1 {
		span := arch.SpanBytes(level)
		idx := int(uint64(va-base) / span)
		entryLo := base + arch.Vaddr(uint64(idx)*span)
		child, err := c.ensureChild(pfn, level, idx, entryLo)
		if err != nil {
			return err
		}
		pfn, level, base = child, level-1, entryLo
	}
	idx := int(uint64(va-base) / arch.PageSize)
	if old := t.LoadPTE(pfn, idx); isa.IsPresent(old) {
		c.releaseLeaf(old, 1, va)
	}
	leaf := isa.EncodeLeaf(frame, perm, 1)
	if key != 0 {
		leaf = isa.WithProtKey(leaf, key)
	}
	t.SetPTE(pfn, idx, leaf)
	t.SetMeta(pfn, idx, pt.Status{})
	return nil
}

// clearMetaAt wipes the metadata entry for exactly one page, splitting
// upper-level spans as needed, WITHOUT releasing resources the status
// references (unlike dropMeta) — used when the status moved elsewhere.
func (c *RCursor) clearMetaAt(va arch.Vaddr) error {
	t, isa := c.a.tree, c.a.isa
	pfn, level, base := c.root, c.rootLevel, c.rootBase
	for {
		span := arch.SpanBytes(level)
		idx := int(uint64(va-base) / span)
		entryLo := base + arch.Vaddr(uint64(idx)*span)
		pte := t.LoadPTE(pfn, idx)
		if isa.IsPresent(pte) && !isa.IsLeaf(pte, level) {
			pfn, level, base = isa.PFNOf(pte), level-1, entryLo
			continue
		}
		if t.GetMeta(pfn, idx).Kind == pt.StatusInvalid {
			return nil
		}
		if level == 1 || (entryLo == va && span == arch.PageSize) {
			t.SetMeta(pfn, idx, pt.Status{})
			return nil
		}
		// The status covers a span wider than one page: push it down.
		child, err := c.ensureChild(pfn, level, idx, entryLo)
		if err != nil {
			return err
		}
		pfn, level, base = child, level-1, entryLo
	}
}
