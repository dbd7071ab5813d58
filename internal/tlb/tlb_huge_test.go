package tlb

import (
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

func trL(pfn arch.PFN, level int) pt.Translation {
	return pt.Translation{PFN: pfn, Perm: arch.PermRW, Level: level}
}

// TestHugeLookupAllOffsets is the tentpole property: one fill of a
// 2-MiB leaf makes Lookup hit at every 4-KiB offset in the span, with
// the PFN rebased per page. The fill goes through an interior page, as
// the fault path does (pt.WalkAccess returns the page-adjusted PFN).
func TestHugeLookupAllOffsets(t *testing.T) {
	m := NewMachine(1, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 3 * span
	const basePFN = 1 << 20
	m.Insert(0, 1, base+7*arch.PageSize, trL(basePFN+7, 2))
	pages := uint64(span) / arch.PageSize
	for p := uint64(0); p < pages; p++ {
		got, ok := m.Lookup(0, 1, base+arch.Vaddr(p)*arch.PageSize)
		if !ok || got.PFN != basePFN+arch.PFN(p) || got.Level != 2 {
			t.Fatalf("page %d: got %+v ok=%v, want PFN %#x level 2", p, got, ok, basePFN+arch.PFN(p))
		}
	}
	st := m.Stats()
	if st.HugeHits != pages {
		t.Errorf("HugeHits = %d, want %d", st.HugeHits, pages)
	}
	if rate := st.HitRate(); rate < 0.99 {
		t.Errorf("hit rate = %.3f, want >= 0.99", rate)
	}
}

// TestHugeLookup1G does the same for a 1-GiB leaf, sampling offsets.
func TestHugeLookup1G(t *testing.T) {
	m := NewMachine(1, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(3))
	base := 2 * span
	const basePFN = 1 << 24
	m.Insert(0, 1, base, trL(basePFN, 3))
	pages := uint64(span) / arch.PageSize
	for p := uint64(0); p < pages; p += 4093 { // coprime stride samples the span
		got, ok := m.Lookup(0, 1, base+arch.Vaddr(p)*arch.PageSize)
		if !ok || got.PFN != basePFN+arch.PFN(p) || got.Level != 3 {
			t.Fatalf("page %d: got %+v ok=%v", p, got, ok)
		}
	}
	// A 2-MiB probe at the same base must not alias the 1-GiB entry...
	m.FlushLocalAll(0, 1)
	if _, ok := m.Lookup(0, 1, base); ok {
		t.Fatal("entry survived full-ASID flush")
	}
	// ...and vice versa: a 2-MiB entry at a 1-GiB-aligned base keeps its
	// own level.
	m.Insert(0, 1, base, trL(500, 2))
	got, ok := m.Lookup(0, 1, base+arch.Vaddr(arch.SpanBytes(2)))
	if ok {
		t.Fatalf("2-MiB entry served a lookup one 2-MiB span away: %+v", got)
	}
	if got, ok := m.Lookup(0, 1, base+arch.PageSize); !ok || got.Level != 2 || got.PFN != 501 {
		t.Fatalf("2-MiB entry at 1-GiB-aligned base: got %+v ok=%v", got, ok)
	}
}

// TestHugeOverlapInvalidation checks span-aware generation validation:
// any remote invalidation record overlapping the huge span — even a
// single 4-KiB page — kills the whole entry, while disjoint records
// leave it alone.
func TestHugeOverlapInvalidation(t *testing.T) {
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 5 * span
	cases := []struct {
		name   string
		lo, hi arch.Vaddr
		kills  bool
	}{
		{"page-inside", base + 9*arch.PageSize, base + 10*arch.PageSize, true},
		{"straddle-lo", base - 4*arch.PageSize, base + arch.PageSize, true},
		{"straddle-hi", base + span - arch.PageSize, base + span + arch.PageSize, true},
		{"exact-span", base, base + span, true},
		{"enclosing", base - span, base + 2*span, true},
		{"before", base - 8*arch.PageSize, base, false},
		{"after", base + span, base + span + 8*arch.PageSize, false},
	}
	offsets := []arch.Vaddr{0, arch.PageSize, span / 2, span - arch.PageSize}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(2, ModeSync)
			m.Insert(1, 1, base, trL(900, 2))
			m.ShootdownRange(0, 1, tc.lo, tc.hi)
			for _, off := range offsets {
				_, ok := m.Lookup(1, 1, base+off)
				if tc.kills && ok {
					t.Fatalf("offset %#x survived overlapping invalidation [%#x,%#x)", off, tc.lo, tc.hi)
				}
				if !tc.kills && !ok {
					t.Fatalf("offset %#x wrongly dropped by disjoint invalidation [%#x,%#x)", off, tc.lo, tc.hi)
				}
			}
		})
	}
}

// TestHugePreciseClear covers the owning core's precise paths: both a
// single-page Shootdown initiated locally and a one-page FlushLocal
// must clear a containing huge entry (the post-split small-unmap case —
// splitting a huge leaf itself issues no flush, so the later precise
// invalidation is the only thing standing between the stale span entry
// and a freed frame).
func TestHugePreciseClear(t *testing.T) {
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 7 * span

	m := NewMachine(1, ModeSync)
	m.Insert(0, 1, base, trL(900, 2))
	m.FlushLocal(0, 1, base+13*arch.PageSize)
	if _, ok := m.Lookup(0, 1, base); ok {
		t.Fatal("huge entry survived FlushLocal of an interior page")
	}

	m.Insert(0, 1, base, trL(900, 2))
	m.Shootdown(0, 1, []arch.Vaddr{base + 100*arch.PageSize})
	if _, ok := m.Lookup(0, 1, base+arch.PageSize); ok {
		t.Fatal("huge entry survived local single-page shootdown")
	}

	// Precise range path (within preciseLimit) on the initiator.
	m.Insert(0, 1, base, trL(900, 2))
	m.FlushLocalRange(0, 1, base+8*arch.PageSize, base+12*arch.PageSize)
	if _, ok := m.Lookup(0, 1, base+span-arch.PageSize); ok {
		t.Fatal("huge entry survived precise local range flush")
	}
}

// TestRingBurstNoStaleDrops pins the widened invalidation ring: a burst
// of 16 disjoint range shootdowns between two lookups of the same entry
// replays precisely (zero staledrops). With the old 8-deep ring the
// history wrapped and the entry was conservatively discarded.
func TestRingBurstNoStaleDrops(t *testing.T) {
	m := NewMachine(2, ModeSync)
	m.Insert(1, 1, 0x1000, tr(1))
	for i := 0; i < 16; i++ {
		lo := arch.Vaddr(0x4000000 + i*64*0x1000)
		m.ShootdownRange(0, 1, lo, lo+(preciseLimitInit+1)*arch.PageSize)
	}
	if _, ok := m.Lookup(1, 1, 0x1000); !ok {
		t.Fatal("entry lost: 16-range burst wrapped the invalidation ring")
	}
	if sd := m.Stats().StaleDrops; sd != 0 {
		t.Fatalf("staledrops = %d after 16-range burst, want 0", sd)
	}
}

// TestAdaptivePreciseLimit drives both regimes of the precise-vs-bump
// cutover. When wide flushes keep invalidating lazily while live
// entries of the same ASID are looked up (each paying a ring replay),
// the limit must rise; when small precise flushes run with no lookups
// to tax, the limit must fall back to the floor.
func TestAdaptivePreciseLimit(t *testing.T) {
	m := NewMachine(1, ModeSync)
	c := &m.cores[0]

	// Regime 1: laziness is expensive. 512-page flushes always bump
	// (above preciseLimitMax); the 8 live entries re-validate after
	// every bump.
	for p := 0; p < 8; p++ {
		m.Insert(0, 1, arch.Vaddr(0x40000000+p*0x1000), tr(arch.PFN(p)))
	}
	for i := 0; i < 8*adaptWindow; i++ {
		m.FlushLocalRange(0, 1, 0, 512*arch.PageSize)
		for p := 0; p < 8; p++ {
			if _, ok := m.Lookup(0, 1, arch.Vaddr(0x40000000+p*0x1000)); !ok {
				t.Fatalf("iter %d: disjoint flush killed live entry %d", i, p)
			}
		}
	}
	if got := c.precLimit.Load(); got <= preciseLimitInit {
		t.Fatalf("precLimit = %d after lazy-expensive regime, want > %d", got, preciseLimitInit)
	}

	// Regime 2: precision is wasted. Small flushes, no lookups between.
	for i := 0; i < 16*adaptWindow; i++ {
		m.FlushLocalRange(0, 1, 0, 4*arch.PageSize)
	}
	if got := c.precLimit.Load(); got != preciseLimitMin {
		t.Fatalf("precLimit = %d after precise-wasteful regime, want %d", got, preciseLimitMin)
	}
}

// TestHugeConcurrentShootdowns exercises the huge array under -race
// with concurrent fills and shootdowns: while background cores churn
// their own caches with huge inserts and span shootdowns on another
// ASID, a one-page remote shootdown must always kill the probe core's
// whole huge span.
func TestHugeConcurrentShootdowns(t *testing.T) {
	m := NewMachine(4, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, core := range []int{1, 2} {
		core := core
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := span * arch.Vaddr(1+i%8)
				m.Insert(core, 2, b+arch.Vaddr(i%512)*arch.PageSize, trL(arch.PFN(4096+i%512), 2))
				if i%4 == 0 {
					m.ShootdownRange(core, 2, b, b+span)
				}
				m.Lookup(core, 2, b+arch.Vaddr(i*7%512)*arch.PageSize)
			}
		}()
	}
	base := 100 * span
	offsets := []arch.Vaddr{0, span / 2, span - arch.PageSize}
	for iter := 0; iter < 300; iter++ {
		m.Insert(3, 1, base, trL(1000, 2))
		page := base + arch.Vaddr(iter%512)*arch.PageSize
		m.Shootdown(0, 1, []arch.Vaddr{page})
		for _, off := range offsets {
			if _, ok := m.Lookup(3, 1, base+off); ok {
				t.Fatalf("iter %d: offset %#x survived remote one-page shootdown", iter, off)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// checkHugeGate pins the huge-presence gate. Core 0 caches only base
// pages first, so its huge array is never probed; its first huge Insert
// must still make every 4-KiB offset of the span hit at once. Core 1
// never caches the huge entry and must miss at every offset.
func checkHugeGate(t *testing.T, m *Machine) {
	t.Helper()
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 9 * span
	const basePFN = 1 << 20
	for p := 0; p < 64; p++ {
		m.Insert(0, 1, arch.Vaddr(p)*arch.PageSize, tr(arch.PFN(p)))
	}
	if m.cores[0].hasHuge.Load() {
		t.Fatal("base-only core has its huge flag set")
	}
	if _, ok := m.Lookup(0, 1, base); ok {
		t.Fatal("base-only core hit a huge span it never cached")
	}
	m.Insert(0, 1, base+5*arch.PageSize, trL(basePFN+5, 2))
	pages := uint64(span) / arch.PageSize
	for p := uint64(0); p < pages; p++ {
		va := base + arch.Vaddr(p)*arch.PageSize
		if got, ok := m.Lookup(0, 1, va); !ok || got.PFN != basePFN+arch.PFN(p) || got.Level != 2 {
			t.Fatalf("page %d: got %+v ok=%v, want PFN %#x level 2", p, got, ok, basePFN+arch.PFN(p))
		}
		if got, ok := m.Lookup(1, 1, va); ok {
			t.Fatalf("page %d: core 1 never cached the span but hit %+v", p, got)
		}
	}
	if m.cores[1].hasHuge.Load() {
		t.Fatal("core 1 has its huge flag set without a huge fill")
	}
}

// TestHugeGate runs the gate checks on a quiet machine and under -race
// with concurrent shootdowns: core 0 initiates single-page shootdowns
// (running its own precise huge clears beside the probe's fills) and
// core 2 fills huge entries and issues span shootdowns. The traffic is
// on another ASID, so it never invalidates the probed entries.
func TestHugeGate(t *testing.T) {
	t.Run("quiet", func(t *testing.T) { checkHugeGate(t, NewMachine(3, ModeSync)) })
	t.Run("shootdowns", func(t *testing.T) {
		m := NewMachine(3, ModeSync)
		span := arch.Vaddr(arch.SpanBytes(2))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := span * arch.Vaddr(1+i%8)
				m.Shootdown(0, 2, []arch.Vaddr{b + arch.Vaddr(i%512)*arch.PageSize})
				m.Insert(2, 2, b, trL(arch.PFN(4096+i%8*512), 2))
				m.ShootdownRangeSync(2, 2, b, b+span)
			}
		}()
		checkHugeGate(t, m)
		close(stop)
		wg.Wait()
	})
}
