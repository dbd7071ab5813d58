package cpusim

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"cortenmm/internal/arch"
)

// User virtual-address range carved up by the allocators. The low 4 GiB
// are left for fixed-address mappings requested by applications; the top
// half of the 48-bit space is the kernel's.
const (
	UserLo = arch.Vaddr(1) << 32
	UserHi = arch.Vaddr(1) << 47
)

// VAAlloc hands out virtual-address ranges for anonymous mmaps. Sizes
// are page-aligned byte counts. The allocator owns what it handed out:
// Free releases only the parts of a range that are still handed out and
// ignores the rest, so callers may free any range they unmapped.
type VAAlloc interface {
	Alloc(core int, size uint64) (arch.Vaddr, error)
	Free(core int, va arch.Vaddr, size uint64)
	// Clone duplicates the allocator state, ownership included; fork
	// needs the child's allocator to own every range the parent owns.
	Clone() VAAlloc
}

// ErrVAExhausted is returned when an allocator's arena is full.
var ErrVAExhausted = fmt.Errorf("cpusim: virtual address arena exhausted")

// vrange is one handed-out extent [lo, hi).
type vrange struct{ lo, hi arch.Vaddr }

// ownedRun bounds how many extents an insertion or removal moves.
const ownedRun = 32

// arena is a bump allocator over [base, limit) with size-segregated free
// lists. owned holds every extent handed out and not yet freed, in
// address order, cut into runs of ownedRun to 2*ownedRun extents: a
// free finds its extents by binary search and moves at most one run,
// however finely earlier frees split the arena.
type arena struct {
	mu          sync.Mutex
	base, limit arch.Vaddr
	next        arch.Vaddr
	free        map[uint64][]arch.Vaddr
	owned       [][]vrange
}

func newArena(base, limit arch.Vaddr) arena {
	return arena{base: base, limit: limit, next: base, free: make(map[uint64][]arch.Vaddr)}
}

// find returns the run r and index i of the first owned extent ending
// after va; r is len(a.owned) if none does.
func (a *arena) find(va arch.Vaddr) (r, i int) {
	r = sort.Search(len(a.owned), func(k int) bool {
		run := a.owned[k]
		return len(run) > 0 && run[len(run)-1].hi > va
	})
	if r == len(a.owned) {
		return r, 0
	}
	return r, sort.Search(len(a.owned[r]), func(k int) bool { return a.owned[r][k].hi > va })
}

// put stores run at position r, dropping it if empty and halving it if
// it grew too long, and returns the number of runs now stored at r. The
// sole run stays even when empty, so an arena that maps and unmaps one
// extent at a time reuses its storage.
func (a *arena) put(r int, run []vrange) int {
	switch {
	case len(run) == 0 && len(a.owned) > 1:
		a.owned = slices.Delete(a.owned, r, r+1)
		return 0
	case len(run) > 2*ownedRun:
		a.owned[r] = run[:ownedRun]
		a.owned = slices.Insert(a.owned, r+1, slices.Clone(run[ownedRun:]))
		return 2
	}
	a.owned[r] = run
	return 1
}

func (a *arena) alloc(size uint64) (arch.Vaddr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var va arch.Vaddr
	if list := a.free[size]; len(list) > 0 {
		va = list[len(list)-1]
		a.free[size] = list[:len(list)-1]
	} else if uint64(a.next)+size > uint64(a.limit) {
		return 0, ErrVAExhausted
	} else {
		va = a.next
		a.next += arch.Vaddr(size)
	}
	r, i := a.find(va)
	if r > 0 && i == 0 {
		r, i = r-1, len(a.owned[r-1])
	} else if r == len(a.owned) {
		a.owned = append(a.owned, nil)
	}
	a.put(r, slices.Insert(a.owned[r], i, vrange{va, va + arch.Vaddr(size)}))
	return va, nil
}

// release returns to the free lists the parts of [lo, hi) that this
// arena handed out. An extent freed in part is split and its remainder
// stays owned; parts never handed out, or already freed, are ignored,
// and so is a range that wrapped past the top of the address space.
func (a *arena) release(lo, hi arch.Vaddr) {
	lo, hi = max(lo, a.base), min(hi, a.limit)
	if lo >= hi {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for r, i := a.find(lo); r < len(a.owned); i = 0 {
		run := a.owned[r]
		j := i
		for ; j < len(run) && run[j].lo < hi; j++ {
			cut, end := max(run[j].lo, lo), min(run[j].hi, hi)
			a.free[uint64(end-cut)] = append(a.free[uint64(end-cut)], cut)
		}
		if i == j {
			return
		}
		more := j == len(run)
		rest, n := [2]vrange{}, 0
		if run[i].lo < lo {
			rest[n], n = vrange{run[i].lo, lo}, n+1
		}
		if run[j-1].hi > hi {
			rest[n], n = vrange{hi, run[j-1].hi}, n+1
		}
		r += a.put(r, slices.Replace(run, i, j, rest[:n]...))
		if !more {
			return
		}
	}
}

func (a *arena) cloneInto(dst *arena) {
	a.mu.Lock()
	defer a.mu.Unlock()
	*dst = newArena(a.base, a.limit)
	dst.next = a.next
	for sz, list := range a.free {
		dst.free[sz] = slices.Clone(list)
	}
	for _, run := range a.owned {
		dst.owned = append(dst.owned, slices.Clone(run))
	}
}

// PerCoreVA is CortenMM's per-core virtual address allocator (§4.5):
// each core owns a private share of the address space, so concurrent
// allocation and freeing never contend. Frees route back to the owning
// core's arena by address.
type PerCoreVA struct {
	arenas []arena
	span   uint64
}

// NewPerCoreVA splits [UserLo, UserHi) evenly among cores.
func NewPerCoreVA(cores int) *PerCoreVA {
	span := (uint64(UserHi) - uint64(UserLo)) / uint64(cores)
	span &^= arch.PageSize - 1
	p := &PerCoreVA{arenas: make([]arena, cores), span: span}
	for i := range p.arenas {
		base := UserLo + arch.Vaddr(uint64(i)*span)
		p.arenas[i] = newArena(base, base+arch.Vaddr(span))
	}
	return p
}

// Alloc implements VAAlloc from the calling core's private arena.
func (p *PerCoreVA) Alloc(core int, size uint64) (arch.Vaddr, error) {
	return p.arenas[core].alloc(size)
}

// Free implements VAAlloc: each part of the range goes to the arena that
// owns its addresses (which may differ from the freeing core's).
func (p *PerCoreVA) Free(core int, va arch.Vaddr, size uint64) {
	end := va + arch.Vaddr(size)
	i := 0
	if va > UserLo {
		i = int(uint64(va-UserLo) / p.span)
	}
	for ; i < len(p.arenas) && p.arenas[i].base < end; i++ {
		p.arenas[i].release(va, end)
	}
}

// Clone implements VAAlloc.
func (p *PerCoreVA) Clone() VAAlloc {
	c := &PerCoreVA{arenas: make([]arena, len(p.arenas)), span: p.span}
	for i := range p.arenas {
		p.arenas[i].cloneInto(&c.arenas[i])
	}
	return c
}

// GlobalVA is a single shared arena guarded by one lock — the allocator
// the adv_base ablation (§6.4) falls back to, and roughly what a naive
// kernel does.
type GlobalVA struct {
	a arena
}

// NewGlobalVA covers all of [UserLo, UserHi) with one arena.
func NewGlobalVA() *GlobalVA {
	return &GlobalVA{a: newArena(UserLo, UserHi)}
}

// Alloc implements VAAlloc.
func (g *GlobalVA) Alloc(core int, size uint64) (arch.Vaddr, error) { return g.a.alloc(size) }

// Free implements VAAlloc.
func (g *GlobalVA) Free(core int, va arch.Vaddr, size uint64) { g.a.release(va, va+arch.Vaddr(size)) }

// Clone implements VAAlloc.
func (g *GlobalVA) Clone() VAAlloc {
	c := &GlobalVA{}
	g.a.cloneInto(&c.a)
	return c
}
