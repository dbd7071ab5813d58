package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestMunmapHalvesRecyclesVA maps 1000 regions and unmaps each in two
// halves. Both halves go back to the VA allocator, nothing stays
// allocated in the tree, and a reclaim sweep finds nothing to visit.
// A side table keyed by the mmap'd extent recycled nothing here and
// kept 1000 phantom ranges on the reclaim clock.
func TestMunmapHalvesRecyclesVA(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 1, Frames: 1 << 14})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true, SwapDev: mem.NewBlockDev("swap")})
	if err != nil {
		t.Fatal(err)
	}
	const regions, size, half = 1000, 4 * arch.PageSize, 2 * arch.PageSize
	freed := make(map[arch.Vaddr]bool, 2*regions)
	for i := 0; i < regions; i++ {
		va, err := a.Mmap(0, size, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Touch(0, va, pt.AccessWrite); err != nil {
			t.Fatal(err)
		}
		if err := a.Munmap(0, va, half); err != nil {
			t.Fatal(err)
		}
		if err := a.Munmap(0, va+half, half); err != nil {
			t.Fatal(err)
		}
		freed[va], freed[va+half] = true, true
	}
	if regs, err := a.Regions(0); err != nil || len(regs) != 0 {
		t.Fatalf("%d regions left in the tree (%v), want 0", len(regs), err)
	}
	if n := a.reclaimSome(0, -1, 1<<20); n != 0 || a.reclaimHand.Load() != 0 {
		t.Fatalf("reclaim sweep reclaimed %d and moved its hand to %#x; want nothing visited",
			n, a.reclaimHand.Load())
	}
	for i := 0; i < 2*regions; i++ {
		va, err := a.Mmap(0, half, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !freed[va] {
			t.Fatalf("mmap %d got %#x, not a recycled half", i, va)
		}
		delete(freed, va)
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

// TestMunmapSpanningTwoMmaps: one munmap over two adjacent mmaps
// recycles both of them.
func TestMunmapSpanningTwoMmaps(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	const size = 4 * arch.PageSize
	va1, _ := a.Mmap(0, size, arch.PermRW, 0)
	va2, _ := a.Mmap(0, size, arch.PermRW, 0)
	if va2 != va1+size {
		t.Fatalf("bump allocator gave %#x then %#x, want adjacent", va1, va2)
	}
	if err := a.Munmap(0, va1, 2*size); err != nil {
		t.Fatal(err)
	}
	got := map[arch.Vaddr]bool{}
	for i := 0; i < 2; i++ {
		va, err := a.Mmap(0, size, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		got[va] = true
	}
	if !got[va1] || !got[va2] {
		t.Fatalf("recycled %v, want both %#x and %#x", got, va1, va2)
	}
	a.Destroy(0)
	checkClean(t, m)
}

// TestMremapShrinkRecyclesTail: the tail a shrinking mremap unmaps goes
// back to the allocator, and so does the rest on the final munmap.
func TestMremapShrinkRecyclesTail(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	const size, half = 4 * arch.PageSize, 2 * arch.PageSize
	va, _ := a.Mmap(0, size, arch.PermRW, 0)
	if got, err := a.Mremap(0, va, size, half); err != nil || got != va {
		t.Fatalf("shrink = %#x, %v; want %#x in place", got, err, va)
	}
	if err := a.Munmap(0, va, half); err != nil {
		t.Fatal(err)
	}
	got := map[arch.Vaddr]bool{}
	for i := 0; i < 2; i++ {
		v, err := a.Mmap(0, half, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		got[v] = true
	}
	if !got[va] || !got[va+half] {
		t.Fatalf("recycled %v, want both %#x and %#x", got, va, va+half)
	}
	a.Destroy(0)
	checkClean(t, m)
}

// TestMmapZeroSize: a zero-byte mmap is a bad range and reaches neither
// the allocator nor the tree.
func TestMmapZeroSize(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	if _, err := a.Mmap(0, 0, arch.PermRW, 0); err == nil {
		t.Fatal("zero-size Mmap succeeded")
	}
	if _, err := a.NewBatch(0).Mmap(0, arch.PermRW, 0); err == nil {
		t.Fatal("zero-size batch Mmap succeeded")
	}
	va, err := a.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil || va != cpusim.UserLo {
		t.Fatalf("first real Mmap = %#x, %v; want %#x", va, err, cpusim.UserLo)
	}
	a.Destroy(0)
	checkClean(t, m)
}

// TestConcurrentPartialMunmap races partial unmaps of one region on two
// cores: one unmaps it in halves, the other whole. Whatever the
// interleaving, each page returns to the allocator exactly once, so the
// allocations that follow never overlap. Fixed ranges raced the same
// way, one below every arena and one inside core 1's, never reach it.
func TestConcurrentPartialMunmap(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	const size, half = 4 * arch.PageSize, 2 * arch.PageSize
	fixed := []arch.Vaddr{arch.Vaddr(1) << 30, cpusim.UserHi - size}
	type alloc struct {
		core int
		va   arch.Vaddr
		size uint64
	}
	for i := 0; i < rounds; i++ {
		va, err := a.Mmap(0, size, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fixed {
			if err := a.MmapFixed(0, f, size, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.Run(2, func(core int) {
			for _, r := range append([]arch.Vaddr{va}, fixed...) {
				if core == 0 {
					_ = a.Munmap(core, r, half)
					_ = a.Munmap(core, r+half, half)
				} else {
					_ = a.Munmap(core, r, size)
				}
			}
		})
		// The region comes back as one whole or as two halves; take
		// one of each size from core 0 and two from core 1, whose arena
		// holds the fixed range.
		got := []alloc{{0, 0, size}, {0, 0, half}, {0, 0, half}, {1, 0, size}, {1, 0, size}}
		for x := range got {
			if got[x].va, err = a.Mmap(got[x].core, got[x].size, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
		}
		for x, g := range got {
			for _, f := range fixed {
				if overlap(g.va, g.size, f, size) {
					t.Fatalf("round %d: fixed VA %#x handed out by the allocator", i, f)
				}
			}
			for _, h := range got[:x] {
				if overlap(g.va, g.size, h.va, h.size) {
					t.Fatalf("round %d: VA handed out twice: %#x and %#x", i, h.va, g.va)
				}
			}
		}
		for _, g := range got {
			if err := a.Munmap(0, g.va, g.size); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

// TestOOMKillPicksResidentHog: the OOM killer picks the space holding
// the most frames, not the one with the most address space. A space
// that reserved a large range but touched one page survives; the small,
// fully populated hog is the one killed.
func TestOOMKillPicksResidentHog(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 256})
	big, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	hog, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	rm := AttachReclaim(m, ReclaimConfig{OOMKill: true})
	rm.Register(big)
	rm.Register(hog)
	va, err := big.Mmap(0, 1<<30, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Store(0, va, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := hog.Mmap(0, 200*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	// Kernel allocations past what is free force a kill.
	var kernel []arch.PFN
	for i := 0; i < 64; i++ {
		pfn, err := m.Phys.AllocFrame(1, mem.KindKernel)
		if err != nil {
			t.Fatalf("kernel allocation %d failed: %v", i, err)
		}
		kernel = append(kernel, pfn)
	}
	if !hog.OOMKilled() || big.OOMKilled() {
		t.Fatalf("killed: hog=%v big=%v; want only the hog", hog.OOMKilled(), big.OOMKilled())
	}
	if got := rm.Stats().OOMKills; got != 1 {
		t.Fatalf("OOMKills = %d, want 1", got)
	}
	if b, err := big.Load(0, va); err != nil || b != 7 {
		t.Fatalf("survivor page = %d, %v; want 7", b, err)
	}
	for _, pfn := range kernel {
		m.Phys.Put(1, pfn)
	}
	rm.Unregister(big)
	rm.Unregister(hog)
	big.Destroy(0)
	hog.Destroy(0)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestReclaimHandResumesAndWraps: the reclaim clock hand is a VA in the
// tree. A sweep that meets its target stops on the page after the last
// one it took, the next sweep resumes there, crosses from one region to
// the next, and wraps from the top of the space to the bottom.
func TestReclaimHandResumesAndWraps(t *testing.T) {
	a, _, _ := newSwapSpace(t)
	defer a.Destroy(0)
	const p, pages = arch.PageSize, 8
	lo := arch.Vaddr(arch.SpanBytes(2))
	if err := a.MmapFixed(0, lo, pages*p, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	hi, err := a.Mmap(0, pages*p, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := arch.Vaddr(0); i < pages; i++ {
		a.Store(0, lo+i*p, byte(i))
		a.Store(0, hi+i*p, byte(i+pages))
	}
	swapped := func(va arch.Vaddr) bool {
		c, _ := a.Lock(0, va, va+p)
		defer c.Close()
		st, _ := c.Query(va)
		return st.Kind == pt.StatusSwapped
	}
	sweep := func(target, want int, hand arch.Vaddr) {
		t.Helper()
		if n := a.reclaimSome(0, -1, target); n != want {
			t.Fatalf("sweep of %d reclaimed %d, want %d", target, n, want)
		}
		if got := arch.Vaddr(a.reclaimHand.Load()); got != hand {
			t.Fatalf("hand at %#x, want %#x", got, hand)
		}
	}
	sweep(100, 0, hi+arch.Vaddr(arch.SpanBytes(2))) // every page hot: A bits cleared
	sweep(3, 3, lo+3*p)                             // wraps to the bottom
	sweep(8, 8, hi+3*p)                             // crosses into the upper region
	for i := arch.Vaddr(0); i < pages; i++ {
		if !swapped(lo + i*p) {
			t.Errorf("lower page %d not swapped", i)
		}
		if want := i < 3; swapped(hi+i*p) != want {
			t.Errorf("upper page %d swapped = %v, want %v", i, !want, want)
		}
	}
	sweep(100, pages-3, hi+arch.Vaddr(arch.SpanBytes(2)))
	for i := arch.Vaddr(0); i < pages; i++ {
		if b, err := a.Load(0, lo+i*p); err != nil || b != byte(i) {
			t.Fatalf("lower page %d = %d, %v", i, b, err)
		}
		if b, err := a.Load(0, hi+i*p); err != nil || b != byte(i+pages) {
			t.Fatalf("upper page %d = %d, %v", i, b, err)
		}
	}
}
