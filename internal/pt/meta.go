package pt

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// StatusKind enumerates the states of a virtual page (the variants of the
// paper's Status enum, Figure 4).
type StatusKind uint8

const (
	// StatusInvalid: nothing is allocated at this address.
	StatusInvalid StatusKind = iota
	// StatusMapped: a physical page is mapped (encoded in the PTE; this
	// kind appears in query results, never in metadata arrays).
	StatusMapped
	// StatusPrivateAnon: virtually allocated private anonymous memory,
	// not yet backed by a physical page (on-demand paging).
	StatusPrivateAnon
	// StatusPrivateFile: a private file mapping not yet faulted in.
	StatusPrivateFile
	// StatusSharedAnon: shared anonymous memory (named within the kernel,
	// §4.5), not yet faulted in.
	StatusSharedAnon
	// StatusSharedFile: a shared file mapping not yet faulted in.
	StatusSharedFile
	// StatusSwapped: the page content lives on a swap block device.
	StatusSwapped
)

// String names the status kind.
func (k StatusKind) String() string {
	switch k {
	case StatusInvalid:
		return "invalid"
	case StatusMapped:
		return "mapped"
	case StatusPrivateAnon:
		return "private-anon"
	case StatusPrivateFile:
		return "private-file"
	case StatusSharedAnon:
		return "shared-anon"
	case StatusSharedFile:
		return "shared-file"
	case StatusSwapped:
		return "swapped"
	}
	return fmt.Sprintf("status(%d)", uint8(k))
}

// Status is the state of one virtual page (or of a whole entry span when
// stored at an upper level): the paper's Status enum. For Mapped it
// carries the frame; for file kinds the file and the page index the
// *start* of the entry's span maps to; for Swapped the device and block.
type Status struct {
	Kind StatusKind
	Perm arch.Perm
	// Page is the mapped frame (StatusMapped only).
	Page arch.PFN
	// File backs PrivateFile/SharedFile/SharedAnon spans; Off is the
	// file page index corresponding to the base of the span.
	File *mem.File
	Off  uint64
	// Dev and Block locate swapped-out content (StatusSwapped only).
	Dev   *mem.BlockDev
	Block uint64
	// Key is the MPK protection key for ISAs with MPK enabled.
	Key arch.ProtKey
	// HugeLevel, when 2 or 3, asks the fault handler to back this span
	// with huge pages of that level.
	HugeLevel int8
}

// Allocated reports whether the page is backed by *something* (not
// Invalid), i.e. an access should not segfault outright.
func (s Status) Allocated() bool { return s.Kind != StatusInvalid }

// SlidBy returns the status for a sub-span starting pages pages into the
// span s describes; file offsets and mapped frames advance, everything
// else is unchanged. This is how an upper-level status is pushed down on
// a split, and how a range iterator extends a run: run statuses are
// "sliding" — page i of a run has status SlidBy(i). (Mapped never
// appears in metadata arrays; its case serves query/iterate results,
// where physically contiguous pages coalesce into one run.)
func (s Status) SlidBy(pages uint64) Status {
	switch s.Kind {
	case StatusPrivateFile, StatusSharedFile, StatusSharedAnon:
		s.Off += pages
	case StatusMapped:
		s.Page += arch.PFN(pages)
	}
	return s
}

// MetaArray is the per-PTE metadata array of one PT page (§3.3), indexed
// by PTE offset.
type MetaArray [arch.PTEntries]Status
