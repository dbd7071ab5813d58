package core

import (
	"fmt"
	"io"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

// Region is one maximal run of pages with identical state — what a
// /proc/<pid>/maps line reports. CortenMM has no VMA list, so regions
// are *derived* by walking the page table (the enumerate-the-address-
// space path that §6.2 calls CortenMM's worst case); they are
// descriptive output, never an input to any MM operation.
type Region struct {
	Start, End arch.Vaddr
	Kind       pt.StatusKind
	Perm       arch.Perm
	// Resident counts pages currently backed by frames.
	Resident int
}

// Size returns the region length in bytes.
func (r Region) Size() uint64 { return uint64(r.End - r.Start) }

// String renders the region like a /proc/maps line.
func (r Region) String() string {
	return fmt.Sprintf("%012x-%012x %s %-13v resident=%d", uint64(r.Start), uint64(r.End),
		r.Perm, r.Kind, r.Resident)
}

// Regions enumerates the address space as maximal uniform regions. The
// whole walk runs inside one transaction, so the snapshot is atomic.
func (a *AddrSpace) Regions(core int) ([]Region, error) {
	c, err := a.Lock(core, 0, arch.MaxVaddr)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	var out []Region
	flush := func(r *Region) {
		if r.End > r.Start {
			out = append(out, *r)
		}
	}
	var cur Region
	visit := func(lo, hi arch.Vaddr, kind pt.StatusKind, perm arch.Perm, resident int) {
		// Normalize: a mapped COW page belongs to the same logical
		// region as its writable neighbours.
		normPerm := logicalPerm(perm) &^ (arch.PermCOW | arch.PermShared)
		if cur.End == lo && cur.Kind == regionKind(kind) && cur.Perm == normPerm {
			cur.End = hi
			cur.Resident += resident
			return
		}
		flush(&cur)
		cur = Region{Start: lo, End: hi, Kind: regionKind(kind), Perm: normPerm, Resident: resident}
	}
	err = c.Iterate(0, arch.MaxVaddr, func(r Run) error {
		if r.Status.Kind != pt.StatusMapped {
			visit(r.VA, r.End(), r.Status.Kind, r.Status.Perm, 0)
			return nil
		}
		// Classify mapped pages through the frame descriptor so a file
		// region does not merge with anon neighbours, splitting the run
		// where the backing class changes.
		classify := func(i uint64) pt.StatusKind {
			head := a.m.Phys.HeadOf(r.Status.Page + arch.PFN(i))
			if d := a.m.Phys.Desc(head); d.RMap.File != nil {
				if r.Status.Perm&arch.PermShared != 0 {
					return pt.StatusSharedFile
				}
				return pt.StatusPrivateFile
			}
			return pt.StatusMapped
		}
		start := uint64(0)
		kind := classify(0)
		for i := uint64(1); i < r.Pages; i++ {
			if k := classify(i); k != kind {
				visit(r.VA+arch.Vaddr(start*arch.PageSize), r.VA+arch.Vaddr(i*arch.PageSize),
					kind, r.Status.Perm, int(i-start))
				start, kind = i, k
			}
		}
		visit(r.VA+arch.Vaddr(start*arch.PageSize), r.End(), kind, r.Status.Perm, int(r.Pages-start))
		return nil
	})
	if err != nil {
		return nil, err
	}
	flush(&cur)
	return out, nil
}

// scanMapped calls fn on every resident run of the space in one
// read-only whole-space transaction, the way Regions and Fork lock the
// space. The OOM killer and HugeBytes read the space through it: the
// tree is the only record of what is mapped.
func (a *AddrSpace) scanMapped(core int, fn func(Run)) error {
	c, err := a.Lock(core, 0, arch.MaxVaddr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.IterateMapped(0, arch.MaxVaddr, func(r Run) error {
		fn(r)
		return nil
	})
}

// populatedSpans returns, in address order, the bases of up to n 2-MiB
// spans that map a page at or above from, through a huge leaf or a leaf
// PT page: the only spans that can hold resident pages. Like the
// hardware walker it reads PTEs locklessly inside an RCU read section
// and takes no PT lock, so a clock hand finds its next spans without
// blocking any transaction; the caller revalidates each span in a
// transaction of its own.
func (a *AddrSpace) populatedSpans(core int, from arch.Vaddr, n int) []arch.Vaddr {
	a.m.RCU.ReadLock(core)
	defer a.m.RCU.ReadUnlock(core)
	var out []arch.Vaddr
	var walk func(pfn arch.PFN, level int, base arch.Vaddr)
	walk = func(pfn arch.PFN, level int, base arch.Vaddr) {
		span := arch.Vaddr(arch.SpanBytes(level))
		for i := 0; i < arch.PTEntries && len(out) < n; i++ {
			va := base + arch.Vaddr(i)*span
			pte := a.tree.LoadPTE(pfn, i)
			switch {
			case va+span <= from || !a.isa.IsPresent(pte):
			case level == 1:
				out = append(out, base)
				return
			case !a.isa.IsLeaf(pte, level):
				walk(a.isa.PFNOf(pte), level-1, va)
			case level == 2:
				out = append(out, va)
			}
		}
	}
	walk(a.tree.Root, arch.Levels, 0)
	return out
}

// regionKind folds residency states into the logical backing class for
// coalescing: an on-demand anonymous region stays one region whether
// its pages are unfaulted, resident, or swapped.
func regionKind(k pt.StatusKind) pt.StatusKind {
	if k == pt.StatusMapped || k == pt.StatusSwapped {
		return pt.StatusPrivateAnon
	}
	return k
}

// DumpLayout writes the /proc/maps-style layout to w.
func (a *AddrSpace) DumpLayout(core int, w io.Writer) error {
	regions, err := a.Regions(core)
	if err != nil {
		return err
	}
	for _, r := range regions {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies the Figure-12 well-formedness invariant on
// the live page table. The address space must be quiescent (no
// concurrent transactions); tests call it after every workload.
func (a *AddrSpace) CheckInvariants() error {
	return a.tree.CheckWellFormed()
}
