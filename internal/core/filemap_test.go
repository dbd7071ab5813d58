package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// TestMunmapPrunesFileMappings: unmapping a file mapping must drop its
// fileMaps record and release the space's registration in the file's
// reverse map. Before the fix, Munmap left both behind, so a long-lived
// space that mapped and unmapped files accumulated dead records and the
// file kept shooting down pages in spaces that no longer mapped it.
func TestMunmapPrunesFileMappings(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := mem.NewFile(m.Phys, "data", 8*arch.PageSize)

	countMappers := func() int {
		n := 0
		f.ForEachMapper(func(mem.RMapTarget) { n++ })
		return n
	}

	va1, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := a.MmapFile(0, f, 4, 4*arch.PageSize, arch.PermRead, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.fileMaps); got != 2 {
		t.Fatalf("fileMaps after two MmapFiles = %d, want 2", got)
	}
	if got := countMappers(); got != 1 {
		t.Fatalf("file mappers = %d, want 1 (one space, two registrations)", got)
	}

	// A partial unmap keeps the record: the mapping still covers pages.
	if err := a.Munmap(0, va1, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.fileMaps); got != 2 {
		t.Fatalf("fileMaps after partial unmap = %d, want 2", got)
	}

	// Unmapping the first mapping in full prunes its record but keeps
	// the space registered for the surviving second mapping.
	if err := a.Munmap(0, va1, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.fileMaps); got != 1 {
		t.Fatalf("fileMaps after full unmap = %d, want 1", got)
	}
	if a.fileMaps[0].va != va2 {
		t.Fatalf("wrong record pruned: kept va %#x, want %#x", a.fileMaps[0].va, va2)
	}
	if got := countMappers(); got != 1 {
		t.Fatalf("file mappers after first unmap = %d, want 1", got)
	}

	// Unmapping the last mapping drops the registration entirely.
	if err := a.Munmap(0, va2, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.fileMaps); got != 0 {
		t.Fatalf("fileMaps after last unmap = %d, want 0", got)
	}
	if got := countMappers(); got != 0 {
		t.Fatalf("file mappers after last unmap = %d, want 0", got)
	}

	// A mapping unmapped in two halves loses its record and its
	// registration with the second half.
	va3, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Munmap(0, va3, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := a.fileMaps; len(got) != 1 || got[0].va != va3+2*arch.PageSize || got[0].pgoff != 2 || got[0].npages != 2 {
		t.Fatalf("record after unmapping the first half = %+v, want the second half", got)
	}
	if err := a.Munmap(0, va3+2*arch.PageSize, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(a.fileMaps); got != 0 {
		t.Fatalf("fileMaps after unmapping both halves = %d, want 0", got)
	}
	if got := countMappers(); got != 0 {
		t.Fatalf("file mappers after unmapping both halves = %d, want 0", got)
	}

	// Unmapping the middle splits the record in two, each registered:
	// the space stays a mapper until both pieces are gone.
	va4, err := a.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Munmap(0, va4+arch.PageSize, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := a.lookupFileVAs(f, 3); len(a.fileMaps) != 2 || len(got) != 1 || got[0] != va4+3*arch.PageSize {
		t.Fatalf("after a middle unmap: %d records, page 3 at %#x; want 2 records, page 3 at %#x",
			len(a.fileMaps), got, va4+3*arch.PageSize)
	}
	if err := a.Munmap(0, va4, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := countMappers(); got != 1 {
		t.Fatalf("file mappers with the tail piece still mapped = %d, want 1", got)
	}
	if err := a.Munmap(0, va4+3*arch.PageSize, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := countMappers(); got != 0 || len(a.fileMaps) != 0 {
		t.Fatalf("after unmapping both pieces: %d mappers, %d records; want 0, 0", got, len(a.fileMaps))
	}
	checkWF(t, a)
}
