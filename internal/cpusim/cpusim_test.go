package cpusim

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.Cores != 4 || m.NUMANodes != 1 {
		t.Errorf("defaults: cores=%d nodes=%d", m.Cores, m.NUMANodes)
	}
	if m.Phys.NFrames() != 1<<16 {
		t.Errorf("frames = %d", m.Phys.NFrames())
	}
}

func TestNodeOf(t *testing.T) {
	m := New(Config{Cores: 8, NUMANodes: 2})
	// Cluster-block assignment: cores 0..3 on node 0, 4..7 on node 1.
	for c := 0; c < 8; c++ {
		want := c / 4
		if got := m.NodeOf(c); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", c, got, want)
		}
	}
	for n := 0; n < 2; n++ {
		cores := m.NodeCores(n)
		if len(cores) != 4 {
			t.Fatalf("node %d has %d cores, want 4", n, len(cores))
		}
		for i, c := range cores {
			if c != n*4+i {
				t.Errorf("NodeCores(%d)[%d] = %d, want %d", n, i, c, n*4+i)
			}
		}
	}
	// The physical allocator sees the same topology.
	if m.Phys.Nodes() != 2 {
		t.Errorf("Phys.Nodes() = %d, want 2", m.Phys.Nodes())
	}
}

func TestNodeClamp(t *testing.T) {
	m := New(Config{Cores: 2, NUMANodes: 8})
	if m.NUMANodes != 2 {
		t.Errorf("NUMANodes = %d, want clamped to 2", m.NUMANodes)
	}
}

func TestRunAllCores(t *testing.T) {
	m := New(Config{Cores: 8})
	var mask atomic.Uint32
	m.Run(8, func(core int) { mask.Or(1 << core) })
	if mask.Load() != 0xff {
		t.Errorf("cores ran: %#x", mask.Load())
	}
}

func TestRunTooMany(t *testing.T) {
	m := New(Config{Cores: 2})
	defer func() {
		if recover() == nil {
			t.Error("Run beyond core count did not panic")
		}
	}()
	m.Run(3, func(int) {})
}

func TestASIDsUnique(t *testing.T) {
	m := New(Config{})
	a, b := m.AllocASID(), m.AllocASID()
	if a == b || a == 0 {
		t.Errorf("ASIDs %d %d", a, b)
	}
}

func TestOpTickDrivesLATR(t *testing.T) {
	m := New(Config{Cores: 2, TLBMode: tlb.ModeLATR, TickEvery: 4})
	m.TLB.Insert(1, 1, 0x1000, pt.Translation{PFN: 1, Perm: arch.PermRW, Level: 1})
	m.TLB.Shootdown(0, 1, []arch.Vaddr{0x1000})
	if m.TLB.PendingInvalidations() == 0 {
		t.Fatal("LATR should defer")
	}
	for i := 0; i < 4; i++ {
		m.OpTick(0)
	}
	if m.TLB.PendingInvalidations() != 0 {
		t.Error("OpTick did not sweep LATR buffers")
	}
}

func TestPerCoreVADisjoint(t *testing.T) {
	p := NewPerCoreVA(4)
	seen := map[arch.Vaddr]int{}
	for core := 0; core < 4; core++ {
		for i := 0; i < 100; i++ {
			va, err := p.Alloc(core, 16*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[va]; dup {
				t.Fatalf("va %#x handed to cores %d and %d", va, prev, core)
			}
			seen[va] = core
			if va < UserLo || va >= UserHi {
				t.Fatalf("va %#x outside user range", va)
			}
		}
	}
}

func TestPerCoreVAReuse(t *testing.T) {
	p := NewPerCoreVA(2)
	va, _ := p.Alloc(0, 4*arch.PageSize)
	p.Free(0, va, 4*arch.PageSize)
	va2, _ := p.Alloc(0, 4*arch.PageSize)
	if va2 != va {
		t.Errorf("freed range not reused: %#x vs %#x", va, va2)
	}
	// Cross-core free routes to the owner arena.
	va3, _ := p.Alloc(0, 8*arch.PageSize)
	p.Free(1, va3, 8*arch.PageSize)
	va4, _ := p.Alloc(0, 8*arch.PageSize)
	if va4 != va3 {
		t.Errorf("cross-core freed range not reused by owner: %#x vs %#x", va3, va4)
	}
}

func TestGlobalVA(t *testing.T) {
	g := NewGlobalVA()
	va, err := g.Alloc(3, 4*arch.PageSize)
	if err != nil || va != UserLo {
		t.Fatalf("va=%#x err=%v", va, err)
	}
	g.Free(0, va, 4*arch.PageSize)
	va2, _ := g.Alloc(1, 4*arch.PageSize)
	if va2 != va {
		t.Error("global free list not reused")
	}
}

func TestVAExhaustion(t *testing.T) {
	p := NewPerCoreVA(2)
	span := (uint64(UserHi) - uint64(UserLo)) / 2
	if _, err := p.Alloc(0, span+arch.PageSize); err == nil {
		t.Error("oversized alloc succeeded")
	}
}

func TestParallelVAAlloc(t *testing.T) {
	m := New(Config{Cores: 8})
	p := NewPerCoreVA(8)
	var fail atomic.Int32
	m.Run(8, func(core int) {
		var held []arch.Vaddr
		for i := 0; i < 1000; i++ {
			va, err := p.Alloc(core, 16*arch.PageSize)
			if err != nil {
				fail.Add(1)
				return
			}
			held = append(held, va)
			if i%3 == 0 {
				p.Free(core, held[len(held)-1], 16*arch.PageSize)
				held = held[:len(held)-1]
			}
		}
	})
	if fail.Load() != 0 {
		t.Error("parallel allocation failed")
	}
}

// vaAllocators runs fn against a fresh two-core PerCoreVA and a fresh
// GlobalVA.
func vaAllocators(t *testing.T, fn func(t *testing.T, v VAAlloc)) {
	t.Run("percore", func(t *testing.T) { fn(t, NewPerCoreVA(2)) })
	t.Run("global", func(t *testing.T) { fn(t, NewGlobalVA()) })
}

// allocN allocates n ranges of size on core and returns them as a set.
func allocN(t *testing.T, v VAAlloc, core, n int, size uint64) map[arch.Vaddr]bool {
	t.Helper()
	got := map[arch.Vaddr]bool{}
	for i := 0; i < n; i++ {
		va, err := v.Alloc(core, size)
		if err != nil {
			t.Fatal(err)
		}
		got[va] = true
	}
	return got
}

// TestVAPartialFree: freeing the middle of an extent recycles just the
// middle; the head and tail stay owned until they are freed too.
func TestVAPartialFree(t *testing.T) {
	vaAllocators(t, func(t *testing.T, v VAAlloc) {
		const p = arch.PageSize
		va, _ := v.Alloc(0, 4*p)
		v.Free(0, va+p, 2*p)
		if mid, _ := v.Alloc(0, 2*p); mid != va+p {
			t.Fatalf("freed middle not reused: got %#x, want %#x", mid, va+p)
		}
		if got := allocN(t, v, 0, 2, p); got[va] || got[va+3*p] {
			t.Fatalf("owned head or tail handed out again: %v", got)
		}
		v.Free(0, va, 4*p)
		if got := allocN(t, v, 0, 2, p); !got[va] || !got[va+3*p] {
			t.Fatalf("head and tail not recycled: %v", got)
		}
		if mid, _ := v.Alloc(0, 2*p); mid != va+p {
			t.Fatalf("re-handed middle not recycled: got %#x, want %#x", mid, va+p)
		}
	})
}

// TestVADoubleFree: freeing a range twice, whole or in part, recycles
// it once.
func TestVADoubleFree(t *testing.T) {
	vaAllocators(t, func(t *testing.T, v VAAlloc) {
		const p = arch.PageSize
		va, _ := v.Alloc(0, 4*p)
		v.Free(0, va, 4*p)
		v.Free(1, va, 4*p)
		if got := allocN(t, v, 0, 2, 4*p); !got[va] || len(got) != 2 {
			t.Fatalf("double free: allocations %v, want %#x once", got, va)
		}
		part, _ := v.Alloc(0, 4*p)
		v.Free(0, part, 2*p)
		v.Free(1, part, 2*p)
		if got := allocN(t, v, 0, 2, 2*p); !got[part] || len(got) != 2 {
			t.Fatalf("double partial free: allocations %v, want %#x once", got, part)
		}
	})
}

// TestVAFreeOutsideArenas: ranges below UserLo were never handed out
// and never reach a free list, on any core.
func TestVAFreeOutsideArenas(t *testing.T) {
	vaAllocators(t, func(t *testing.T, v VAAlloc) {
		const size = 4 * arch.PageSize
		low := UserLo - size
		v.Free(0, low, size)
		v.Free(1, 0, size)
		for core := 0; core < 2; core++ {
			if va, _ := v.Alloc(core, size); va < UserLo {
				t.Fatalf("core %d handed out %#x below UserLo", core, va)
			}
		}
	})
}

// TestVAFreeSpanningArenas: one free across the boundary of two
// extents goes to each extent's owner, and for PerCoreVA across the
// boundary of two cores' arenas.
func TestVAFreeSpanningArenas(t *testing.T) {
	vaAllocators(t, func(t *testing.T, v VAAlloc) {
		const size = 4 * arch.PageSize
		lo, hi := 0, 0
		if p, ok := v.(*PerCoreVA); ok {
			// Fill core 0's arena up to its last range.
			if _, err := p.Alloc(0, p.span-size); err != nil {
				t.Fatal(err)
			}
			hi = 1
		}
		a, _ := v.Alloc(lo, size)
		b, _ := v.Alloc(hi, size)
		if b != a+size {
			t.Fatalf("ranges %#x and %#x not adjacent", a, b)
		}
		v.Free(0, a, 2*size)
		x, _ := v.Alloc(lo, size)
		y, _ := v.Alloc(hi, size)
		if min(x, y) != a || max(x, y) != b {
			t.Fatalf("recycled %#x and %#x, want %#x and %#x", x, y, a, b)
		}
	})
}

// TestVACloneOwnership: a clone owns what its parent handed out, and
// the two recycle independently.
func TestVACloneOwnership(t *testing.T) {
	vaAllocators(t, func(t *testing.T, v VAAlloc) {
		const size = 4 * arch.PageSize
		va, _ := v.Alloc(0, size)
		c := v.Clone()
		c.Free(0, va, size)
		c.Free(0, va, size)
		if got := allocN(t, c, 0, 2, size); !got[va] || len(got) != 2 {
			t.Fatalf("clone: allocations %v, want %#x once", got, va)
		}
		if got, _ := v.Alloc(0, size); got == va {
			t.Fatalf("clone's free recycled %#x in the parent", va)
		}
	})
}

// TestVAManyPieces: an extent freed page by page in a scattered order,
// then whole, recycles each page exactly once. The scattered frees split
// it into hundreds of owned pieces, and the final free releases pieces
// spread over many of the arena's runs in one call.
func TestVAManyPieces(t *testing.T) {
	vaAllocators(t, func(t *testing.T, v VAAlloc) {
		const p, n = arch.PageSize, 1000
		va, _ := v.Alloc(0, n*p)
		for _, k := range rand.New(rand.NewSource(1)).Perm(n / 2) {
			page := va + arch.Vaddr(2*k+1)*p
			v.Free(0, page, p)
			v.Free(0, page, p)
		}
		v.Free(0, va, n*p)
		v.Free(0, va, n*p)
		got := allocN(t, v, 0, n, p)
		for i := 0; i < n; i++ {
			if !got[va+arch.Vaddr(i)*p] {
				t.Fatalf("page %d of the extent not recycled", i)
			}
		}
		if extra, _ := v.Alloc(0, p); extra >= va && extra < va+n*p {
			t.Fatalf("page %#x recycled twice", extra)
		}
	})
}
