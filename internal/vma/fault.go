package vma

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// MadviseDontNeed implements mm.Madviser: zap the resident pages of
// [va, va+size) under the mmap_lock reader, keeping the VMAs intact.
func (s *Space) MadviseDontNeed(core int, va arch.Vaddr, size uint64) error {
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	s.m.OpTick(core)
	s.mmapLock.RLock()
	freed := s.clearRange(core, va, va+arch.Vaddr(size))
	s.mmapLock.RUnlock()
	s.m.TLB.ShootdownAllSync(core, s.asid)
	s.unchargePages(freed)
	for _, pfn := range freed {
		s.m.Phys.Put(core, pfn)
	}
	return nil
}

// Touch implements mm.MM: the simulated access path.
func (s *Space) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	_, err := s.translate(core, va, acc)
	return err
}

// Load implements mm.MM.
func (s *Space) Load(core int, va arch.Vaddr) (byte, error) {
	tr, err := s.translate(core, va, pt.AccessRead)
	if err != nil {
		return 0, err
	}
	return s.m.Phys.DataPage(tr.PFN)[va&(arch.PageSize-1)], nil
}

// Store implements mm.MM.
func (s *Space) Store(core int, va arch.Vaddr, b byte) error {
	tr, err := s.translate(core, va, pt.AccessWrite)
	if err != nil {
		return err
	}
	s.m.Phys.DataPage(tr.PFN)[va&(arch.PageSize-1)] = b
	return nil
}

func (s *Space) translate(core int, va arch.Vaddr, acc pt.Access) (pt.Translation, error) {
	if va >= arch.MaxVaddr {
		return pt.Translation{}, mm.ErrSegv
	}
	page := arch.PageAlignDown(va)
	for tries := 0; tries < 64; tries++ {
		if tr, ok := s.m.TLB.Lookup(core, s.asid, page); ok && tr.Perm.Contains(acc.Needs()) {
			return tr, nil
		}
		if tr, ok := s.tree.WalkAccess(va, acc); ok {
			s.m.TLB.Insert(core, s.asid, page, tr)
			return tr, nil
		}
		if err := s.pageFault(core, va, acc); err != nil {
			return pt.Translation{}, err
		}
	}
	return pt.Translation{}, fmt.Errorf("vma: translation livelock at %#x", va)
}

// pageFault is Linux's fault path (left column of Figure 2): find the
// VMA under the mmap_lock reader, take the per-VMA lock, drop the
// mmap_lock, then update the page table under the split page-table
// locks.
func (s *Space) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	s.stats.PageFaults.Add(1)
	s.m.OpTick(core)
	page := arch.PageAlignDown(va)

	s.mmapLock.RLock()
	v := s.vmas.find(page)
	if v == nil {
		s.mmapLock.RUnlock()
		return mm.ErrSegv
	}
	v.lock.RLock()
	s.mmapLock.RUnlock()
	defer v.lock.RUnlock()

	perm := v.Perm
	if !perm.Contains(acc.Needs()) {
		return mm.ErrSegv
	}

	leafPT, err := s.ensurePath(core, page)
	if err != nil {
		return err
	}
	st := s.tree.State(leafPT)
	st.Mu.Lock()
	defer st.Mu.Unlock()
	idx := arch.IndexAt(page, 1)
	pte := s.tree.LoadPTE(leafPT, idx)

	if s.isa.IsPresent(pte) {
		ptePerm := s.isa.PermOf(pte)
		if acc == pt.AccessWrite && !ptePerm.Contains(arch.PermWrite) && ptePerm&arch.PermCOW != 0 {
			return s.cowBreak(core, v, leafPT, idx, pte, page)
		}
		if ptePerm.Contains(acc.Needs()) {
			s.stats.SoftFaults.Add(1)
			s.m.TLB.FlushLocal(core, s.asid, page)
			return nil
		}
		return mm.ErrSegv
	}

	// Not present: fault the page in per the VMA's backing.
	var frame arch.PFN
	hwPerm := perm
	switch {
	case v.File == nil:
		frame, err = s.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
	case v.Shared:
		frame, err = v.File.GetPage(core, v.pgoffOf(page))
		if err != nil {
			return err
		}
		hwPerm |= arch.PermShared
	default: // private file
		frame, err = v.File.GetPage(core, v.pgoffOf(page))
		if err != nil {
			return err
		}
		if acc == pt.AccessWrite {
			cp, cerr := s.copyPage(core, frame)
			s.m.Phys.Put(core, frame)
			if cerr != nil {
				return cerr
			}
			frame = cp
			s.stats.COWBreaks.Add(1)
		} else if hwPerm&arch.PermWrite != 0 {
			hwPerm = hwPerm&^arch.PermWrite | arch.PermCOW
		}
	}
	s.tree.SetPTE(leafPT, idx, s.isa.EncodeLeaf(frame, hwPerm, 1))
	head := s.m.Phys.HeadOf(frame)
	s.m.Phys.Desc(head).MapCount.Add(1)
	s.chargePage(core, frame)
	return nil
}

// cowBreak resolves a write fault on a COW page; the leaf lock is held.
func (s *Space) cowBreak(core int, v *VMA, leafPT arch.PFN, idx int, pte uint64, page arch.Vaddr) error {
	s.stats.COWBreaks.Add(1)
	frame := s.isa.PFNOf(pte)
	head := s.m.Phys.HeadOf(frame)
	d := s.m.Phys.Desc(head)
	perm := s.isa.PermOf(pte)
	newPerm := perm&^arch.PermCOW | arch.PermWrite
	if d.MapCount.Load() == 1 && d.Kind == mem.KindAnon {
		s.tree.SetPTE(leafPT, idx, s.isa.WithPerm(pte, newPerm, 1))
		s.m.TLB.FlushLocal(core, s.asid, page)
		return nil
	}
	cp, err := s.copyPage(core, frame)
	if err != nil {
		return err
	}
	s.tree.SetPTE(leafPT, idx, s.isa.EncodeLeaf(cp, newPerm, 1))
	s.m.Phys.Desc(s.m.Phys.HeadOf(cp)).MapCount.Add(1)
	d.MapCount.Add(-1)
	s.m.TLB.ShootdownPageSync(core, s.asid, page)
	s.m.Phys.Put(core, head)
	return nil
}

func (s *Space) copyPage(core int, src arch.PFN) (arch.PFN, error) {
	dst, err := s.m.Phys.AllocFrame(core, mem.KindAnon)
	if err != nil {
		return 0, err
	}
	copy(s.m.Phys.Data(dst), s.m.Phys.DataPage(src))
	return dst, nil
}

// ensurePath walks to the leaf PT page of va, allocating intermediate
// pages under the coarse page-table lock (levels 4..3) and the parent's
// fine-grained lock (level 2), per Table 1's split-lock rules.
func (s *Space) ensurePath(core int, va arch.Vaddr) (arch.PFN, error) {
	cur := s.tree.Root
	for level := arch.Levels; level > 1; level-- {
		idx := arch.IndexAt(va, level)
		pte := s.tree.LoadPTE(cur, idx)
		if !s.isa.IsPresent(pte) {
			coarse := level > 2
			if coarse {
				s.ptl.Lock()
			} else {
				s.tree.State(cur).Mu.Lock()
			}
			pte = s.tree.LoadPTE(cur, idx) // re-check under the lock
			if !s.isa.IsPresent(pte) {
				child, err := s.tree.AllocPTPage(core, level-1)
				if err != nil {
					if coarse {
						s.ptl.Unlock()
					} else {
						s.tree.State(cur).Mu.Unlock()
					}
					return 0, err
				}
				s.tree.SetPTE(cur, idx, s.isa.EncodeTable(child))
				pte = s.tree.LoadPTE(cur, idx)
			}
			if coarse {
				s.ptl.Unlock()
			} else {
				s.tree.State(cur).Mu.Unlock()
			}
		}
		cur = s.isa.PFNOf(pte)
	}
	return cur, nil
}

// clearRange removes every present leaf PTE in [lo, hi), returning the
// frames to free once the TLB flush lands. Leaf locks are taken because
// faults on *other* VMAs sharing a leaf PT page may run concurrently.
func (s *Space) clearRange(core int, lo, hi arch.Vaddr) []arch.PFN {
	var freed []arch.PFN
	for page := lo; page < hi; page += arch.PageSize {
		pfn, ok := s.leafPTOf(page)
		if !ok {
			// Skip the rest of this leaf span: nothing mapped here.
			span := arch.Vaddr(arch.SpanBytes(2))
			page = (page &^ (span - 1)) + span - arch.PageSize
			continue
		}
		st := s.tree.State(pfn)
		st.Mu.Lock()
		idx := arch.IndexAt(page, 1)
		pte := s.tree.LoadPTE(pfn, idx)
		if s.isa.IsPresent(pte) {
			head := s.m.Phys.HeadOf(s.isa.PFNOf(pte))
			s.m.Phys.Desc(head).MapCount.Add(-1)
			freed = append(freed, head)
			s.tree.SetPTE(pfn, idx, 0)
		}
		st.Mu.Unlock()
	}
	return freed
}

// protectRange rewrites present PTEs in [lo, hi) with the VMA-level COW
// rules applied.
func (s *Space) protectRange(core int, lo, hi arch.Vaddr, perm arch.Perm) {
	for page := lo; page < hi; page += arch.PageSize {
		pfn, ok := s.leafPTOf(page)
		if !ok {
			span := arch.Vaddr(arch.SpanBytes(2))
			page = (page &^ (span - 1)) + span - arch.PageSize
			continue
		}
		st := s.tree.State(pfn)
		st.Mu.Lock()
		idx := arch.IndexAt(page, 1)
		pte := s.tree.LoadPTE(pfn, idx)
		if s.isa.IsPresent(pte) {
			old := s.isa.PermOf(pte)
			p := perm
			if old&arch.PermShared != 0 {
				p |= arch.PermShared
			} else if p&arch.PermWrite != 0 {
				head := s.m.Phys.HeadOf(s.isa.PFNOf(pte))
				d := s.m.Phys.Desc(head)
				if d.MapCount.Load() > 1 || d.Kind == mem.KindFile {
					p = p&^arch.PermWrite | arch.PermCOW
				}
			}
			s.tree.StorePTE(pfn, idx, s.isa.WithPerm(pte, p, 1))
		}
		st.Mu.Unlock()
	}
}

// leafPTOf returns the level-1 PT page covering va, if the path exists.
func (s *Space) leafPTOf(va arch.Vaddr) (arch.PFN, bool) {
	cur := s.tree.Root
	for level := arch.Levels; level > 1; level-- {
		pte := s.tree.LoadPTE(cur, arch.IndexAt(va, level))
		if !s.isa.IsPresent(pte) || s.isa.IsLeaf(pte, level) {
			return 0, false
		}
		cur = s.isa.PFNOf(pte)
	}
	return cur, true
}

// freePageTables releases leaf PT pages whose whole span fell inside the
// unmapped range and no longer intersects any VMA (Linux's free_pgtables
// with floor/ceiling bounds). Upper-level pages are retained until
// Destroy, as Linux mostly does in practice.
func (s *Space) freePageTables(core int, lo, hi arch.Vaddr) {
	span := arch.Vaddr(arch.SpanBytes(2))
	first := (lo + span - 1) &^ (span - 1)
	for base := first; base+span <= hi; base += span {
		if len(s.vmas.overlaps(base, base+span)) > 0 {
			continue
		}
		leaf, ok := s.leafPTOf(base)
		if !ok {
			continue
		}
		st := s.tree.State(leaf)
		st.Mu.Lock()
		empty := st.Present == 0
		st.Mu.Unlock()
		if !empty {
			continue
		}
		// Clear the parent entry (level-2 page, fine-grained lock).
		parent := s.parentOf(base, 2)
		pst := s.tree.State(parent)
		pst.Mu.Lock()
		s.tree.SetPTE(parent, arch.IndexAt(base, 2), 0)
		pst.Mu.Unlock()
		s.tree.ReleasePTPage(core, leaf)
	}
}

func (s *Space) parentOf(va arch.Vaddr, level int) arch.PFN {
	cur := s.tree.Root
	for l := arch.Levels; l > level; l-- {
		cur = s.isa.PFNOf(s.tree.LoadPTE(cur, arch.IndexAt(va, l)))
	}
	return cur
}
