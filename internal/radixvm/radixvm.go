// Package radixvm is a baseline modelled on RadixVM (Clements et al.,
// EuroSys'13): the address space is a radix-indexed mapping structure
// with fine-grained range locking, and every core materializes its own
// page-table replica on demand. Disjoint operations touch disjoint
// shards and disjoint per-core trees, so mmap/munmap/fault scale — at
// the cost of replicating page-table memory per core, which is exactly
// the overhead Figure 22 of the CortenMM paper charges it with.
package radixvm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

const nShards = 1024

// mapping is the per-page state in the radix stand-in.
type mapping struct {
	perm  arch.Perm
	frame arch.PFN // NoPFN until first fault
	cores uint64   // mask of cores whose replica maps the page
}

// shard guards one slice of the address space (2-MiB granularity), the
// analog of locking one radix-tree subtree.
type shard struct {
	mu    sync.Mutex
	pages map[arch.Vaddr]*mapping
	_     [32]byte
}

// replica is one core's private page table.
type replica struct {
	mu   sync.Mutex
	tree *pt.Tree
}

// Space is a RadixVM-style address space.
type Space struct {
	m    *cpusim.Machine
	isa  arch.ISA
	asid tlb.ASID
	dead atomic.Bool // Destroy ran: the ASID has been freed

	shards   []shard
	replicas []*replica
	brk      atomic.Uint64
	stats    mm.Stats
}

// New creates an empty RadixVM-style space with one page-table replica
// per core.
func New(m *cpusim.Machine, isa arch.ISA) (*Space, error) {
	if isa == nil {
		isa = arch.X8664{}
	}
	s := &Space{
		m:        m,
		isa:      isa,
		asid:     m.AllocASID(),
		shards:   make([]shard, nShards),
		replicas: make([]*replica, m.Cores),
	}
	for i := range s.shards {
		s.shards[i].pages = make(map[arch.Vaddr]*mapping)
	}
	for c := range s.replicas {
		t, err := pt.NewTree(m.Phys, isa, m.Cores, false)
		if err != nil {
			return nil, err
		}
		s.replicas[c] = &replica{tree: t}
	}
	s.brk.Store(uint64(cpusim.UserLo))
	return s, nil
}

func (s *Space) shardOf(va arch.Vaddr) *shard {
	return &s.shards[uint64(va)>>21%nShards]
}

// Name implements mm.MM.
func (s *Space) Name() string { return "radixvm" }

// ASID implements mm.MM.
func (s *Space) ASID() tlb.ASID { return s.asid }

// Stats implements mm.MM.
func (s *Space) Stats() *mm.Stats { return &s.stats }

// Features implements mm.MM: the subset our simulation carries (the real
// RadixVM also supports COW and file mappings; they are not needed by
// any experiment this baseline appears in).
func (s *Space) Features() mm.Features {
	return mm.Features{OnDemandPaging: true, NUMAPolicy: true}
}

// Mmap implements mm.MM: insert per-page entries into the radix shards.
// The VA bump is a single atomic add, so allocation itself scales.
func (s *Space) Mmap(core int, size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	size = (size + arch.PageSize - 1) &^ (arch.PageSize - 1)
	va := arch.Vaddr(s.brk.Add(size) - size)
	if va+arch.Vaddr(size) > cpusim.UserHi {
		return 0, cpusim.ErrVAExhausted
	}
	s.insertRange(va, size, perm)
	if fl&mm.FlagPopulate != 0 {
		for off := uint64(0); off < size; off += arch.PageSize {
			if err := s.Touch(core, va+arch.Vaddr(off), pt.AccessRead); err != nil {
				return 0, err
			}
		}
	}
	return va, nil
}

// MmapFixed implements mm.MM.
func (s *Space) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		_, exists := sh.pages[page]
		sh.mu.Unlock()
		if exists {
			return mm.ErrExists
		}
	}
	s.insertRange(va, size, perm)
	return nil
}

func (s *Space) insertRange(va arch.Vaddr, size uint64, perm arch.Perm) {
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		sh.pages[page] = &mapping{perm: perm, frame: arch.NoPFN}
		sh.mu.Unlock()
	}
}

// MmapFile is not carried by this baseline (no experiment needs it).
func (s *Space) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	return 0, mm.ErrNotSupported
}

// Munmap implements mm.MM: per-page shard removal plus targeted clearing
// of exactly the replicas that materialized each page — RadixVM's
// scalable unmap.
func (s *Space) Munmap(core int, va arch.Vaddr, size uint64) error {
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	s.stats.Munmaps.Add(1)
	s.m.OpTick(core)
	var freed []arch.PFN
	var flush []tlb.Range
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		mp, ok := sh.pages[page]
		if ok {
			delete(sh.pages, page)
		}
		sh.mu.Unlock()
		if !ok {
			continue
		}
		for c := 0; c < len(s.replicas); c++ {
			if mp.cores&(1<<c) == 0 {
				continue
			}
			r := s.replicas[c]
			r.mu.Lock()
			s.clearLeaf(r.tree, page)
			r.mu.Unlock()
		}
		if mp.frame != arch.NoPFN {
			d := s.m.Phys.Desc(mp.frame)
			d.MapCount.Store(0)
			freed = append(freed, mp.frame)
			// Coalesce adjacent pages into one invalidation range.
			if n := len(flush); n > 0 && flush[n-1].Hi == page {
				flush[n-1].Hi = page + arch.PageSize
			} else {
				flush = append(flush, tlb.Range{Lo: page, Hi: page + arch.PageSize})
			}
		}
	}
	if len(flush) > 0 {
		// Batches of disjoint ranges are cheap now that a shootdown is a
		// bounded number of generation records per core (the TLB layer
		// collapses dense batches to their envelope), so there is no
		// full-ASID escape hatch for large batches anymore.
		s.m.TLB.ShootdownRanges(core, s.asid, flush)
	}
	for _, pfn := range freed {
		s.m.Phys.Put(core, pfn)
	}
	return nil
}

// Mprotect implements mm.MM.
func (s *Space) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	if err := arch.CheckCanonical(va, size); err != nil {
		return fmt.Errorf("%w: %v", mm.ErrBadRange, err)
	}
	s.stats.Mprotects.Add(1)
	s.m.OpTick(core)
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		sh := s.shardOf(page)
		sh.mu.Lock()
		mp, ok := sh.pages[page]
		if ok {
			mp.perm = perm
			for c := 0; c < len(s.replicas); c++ {
				if mp.cores&(1<<c) == 0 {
					continue
				}
				r := s.replicas[c]
				r.mu.Lock()
				s.setLeaf(core, r.tree, page, mp.frame, perm)
				r.mu.Unlock()
			}
		}
		sh.mu.Unlock()
	}
	s.m.TLB.ShootdownAllSync(core, s.asid)
	return nil
}

// Msync implements mm.MM (no file mappings: nothing to do).
func (s *Space) Msync(core int, va arch.Vaddr, size uint64) error { return nil }

// Fork is not carried by this baseline.
func (s *Space) Fork(core int) (mm.MM, error) { return nil, mm.ErrNotSupported }

// Touch implements mm.MM against the calling core's replica.
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
	r := s.replicas[core]
	for tries := 0; tries < 64; tries++ {
		if tr, ok := s.m.TLB.Lookup(core, s.asid, page); ok && tr.Perm.Contains(acc.Needs()) {
			return tr, nil
		}
		if tr, ok := r.tree.WalkAccess(va, acc); ok {
			s.m.TLB.Insert(core, s.asid, page, tr)
			return tr, nil
		}
		if err := s.pageFault(core, va, acc); err != nil {
			return pt.Translation{}, err
		}
	}
	return pt.Translation{}, fmt.Errorf("radixvm: translation livelock at %#x", va)
}

// pageFault backs the page (first fault anywhere) and installs it into
// the faulting core's replica only.
func (s *Space) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	defer s.stats.ExitKernel(s.stats.EnterKernel())
	s.stats.PageFaults.Add(1)
	s.m.OpTick(core)
	page := arch.PageAlignDown(va)
	sh := s.shardOf(page)
	sh.mu.Lock()
	mp, ok := sh.pages[page]
	if !ok {
		sh.mu.Unlock()
		return mm.ErrSegv
	}
	if !mp.perm.Contains(acc.Needs()) {
		sh.mu.Unlock()
		return mm.ErrSegv
	}
	if mp.frame == arch.NoPFN {
		frame, err := s.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		mp.frame = frame
	}
	frame, perm := mp.frame, mp.perm
	mp.cores |= 1 << core
	sh.mu.Unlock()

	r := s.replicas[core]
	r.mu.Lock()
	err := s.setLeaf(core, r.tree, page, frame, perm)
	r.mu.Unlock()
	if err == nil {
		s.m.TLB.FlushLocal(core, s.asid, page)
	}
	return err
}

func (s *Space) setLeaf(core int, t *pt.Tree, va arch.Vaddr, frame arch.PFN, perm arch.Perm) error {
	if frame == arch.NoPFN {
		return nil
	}
	cur := t.Root
	for level := arch.Levels; level > 1; level-- {
		idx := arch.IndexAt(va, level)
		pte := t.LoadPTE(cur, idx)
		if !s.isa.IsPresent(pte) {
			child, err := t.AllocPTPage(core, level-1)
			if err != nil {
				return err
			}
			t.SetPTE(cur, idx, s.isa.EncodeTable(child))
			pte = t.LoadPTE(cur, idx)
		}
		cur = s.isa.PFNOf(pte)
	}
	idx := arch.IndexAt(va, 1)
	old := t.LoadPTE(cur, idx)
	t.SetPTE(cur, idx, s.isa.EncodeLeaf(frame, perm, 1))
	if !s.isa.IsPresent(old) {
		d := s.m.Phys.Desc(frame)
		d.MapCount.Add(1)
		s.m.Phys.Get(frame)
	}
	return nil
}

func (s *Space) clearLeaf(t *pt.Tree, va arch.Vaddr) {
	cur := t.Root
	for level := arch.Levels; level > 1; level-- {
		pte := t.LoadPTE(cur, arch.IndexAt(va, level))
		if !s.isa.IsPresent(pte) {
			return
		}
		cur = s.isa.PFNOf(pte)
	}
	idx := arch.IndexAt(va, 1)
	old := t.LoadPTE(cur, idx)
	if s.isa.IsPresent(old) {
		t.SetPTE(cur, idx, 0)
		s.m.Phys.Put(0, s.isa.PFNOf(old))
	}
}

// Destroy implements mm.MM. Idempotent; flushes eagerly only in
// monotonic compat mode (with recycling the allocator's rollover flush
// covers the dead translations before the slot is reissued) and returns
// the ASID, which this baseline previously leaked on every teardown.
func (s *Space) Destroy(core int) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	// Free mapped frames via the shards (each mapping holds the base
	// reference; replica PTEs hold one more each).
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, mp := range sh.pages {
			if mp.frame != arch.NoPFN {
				s.m.Phys.Put(core, mp.frame)
			}
		}
		sh.pages = make(map[arch.Vaddr]*mapping)
		sh.mu.Unlock()
	}
	for _, r := range s.replicas {
		r.mu.Lock()
		r.tree.Destroy(core, func(pte uint64, level int) {
			s.m.Phys.Put(core, s.isa.PFNOf(pte))
		})
		r.mu.Unlock()
	}
	s.replicas = nil
	if !s.m.ASIDRecycling() {
		s.m.TLB.ShootdownAllSync(core, s.asid)
	}
	s.m.FreeASID(s.asid)
}

// PTBytes reports the total page-table bytes across all replicas — the
// replication overhead Figure 22 charges RadixVM with.
func (s *Space) PTBytes() uint64 {
	var pages int64
	for _, r := range s.replicas {
		pages += r.tree.PTPageCount.Load()
	}
	return uint64(pages) * arch.PageSize
}

// MetaBytes approximates the radix-structure metadata footprint.
func (s *Space) MetaBytes() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += uint64(len(sh.pages)) * 48
		sh.mu.Unlock()
	}
	return n
}
