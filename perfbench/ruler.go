package main

import (
	"math/rand"
	"sync"
	"time"
)

const (
	// rulerFrames is the frame table of the ruler: 2^20 descriptors, as
	// many as the simulated machines have frames.
	rulerFrames = 1 << 20
	// rulerSlots is the number of mapping slots the ruler cycles
	// through, so the shape of its page table repeats.
	rulerSlots = 64
	// rulerTLB is the number of entries of the ruler's per-core TLB, as
	// in the simulator.
	rulerTLB = 2048
	// rulerSeed fixes the ruler's frame and access orders, so every run
	// and every commit times the same work.
	rulerSeed = 1
)

// rulerShape is the shape of one ruler block, taken from the workload:
// the pages mapped, touched and unmapped, and the random-order read
// passes over them.
type rulerShape struct{ pages, passes int }

// ruler is the benchmark's yardstick for the host's speed: a fixed
// miniature memory manager, written apart from the simulator and sharing
// no code with it, that runs blocks of the workload's shape on one
// goroutine. A block maps a range under a mutex with a side-table entry
// and clock reads, faults each page in through a four-level radix table
// (allocating a frame from a 2^20-frame table and tables on the way,
// filling the TLB and writing a byte of data), reads the pages back in
// random order through the TLB (walking the table on a miss), and
// unmaps the range. Its host time, measured in short slices around the
// measured ones, moves with the host's speed the way the simulator's
// does, and no change to the simulator moves it, so a gain in any layer
// of the simulator shows in full in the gated metrics expressed in it.
// It runs on one core even for the 2-core workload: it measures the
// speed of a core, and contention between cores is the simulator's to
// show.
type ruler struct {
	shape rulerShape
	mu    sync.Mutex
	frame []rulerFrame
	free  []uint32 // frame numbers, LIFO
	root  *rulerNode
	tlb   [rulerTLB]struct{ va, pfn uint64 }
	vas   map[uint64]uint64
	data  []byte   // one 4-KiB data page per mapped page
	order []uint32 // read order of the pages
	slot  uint64
	base  time.Time
	// clock and sum keep the clock reads and the reads live.
	clock int64
	sum   uint64
}

type rulerFrame struct {
	refs  uint32
	flags uint32
	va    uint64
}

type rulerNode struct {
	pte   [512]uint64
	child [512]*rulerNode
}

func newRuler(shape rulerShape) *ruler {
	rng := rand.New(rand.NewSource(rulerSeed))
	r := &ruler{
		shape: shape,
		frame: make([]rulerFrame, rulerFrames),
		free:  make([]uint32, rulerFrames),
		root:  &rulerNode{},
		vas:   map[uint64]uint64{},
		data:  make([]byte, shape.pages*page),
		order: make([]uint32, shape.pages),
		base:  time.Now(),
	}
	for i, f := range rng.Perm(rulerFrames) {
		r.free[i] = uint32(f)
	}
	for i, p := range rng.Perm(shape.pages) {
		r.order[i] = uint32(p)
	}
	return r
}

// run runs blocks for d and returns the wall time per operation in ns.
// A block's operations are its map, its page faults, its reads and its
// unmap.
func (r *ruler) run(d time.Duration) float64 {
	deadline := time.Now().Add(d)
	t0 := time.Now()
	n := 0
	for ; time.Now().Before(deadline); n++ {
		r.block()
	}
	ops := 2 + r.shape.pages + r.shape.passes*r.shape.pages
	return float64(time.Since(t0)) / float64(max(n, 1)*ops)
}

// syscall brackets f the way a system call is: a lock and clock reads.
func (r *ruler) syscall(f func()) {
	t0 := time.Since(r.base)
	r.mu.Lock()
	f()
	r.mu.Unlock()
	r.clock += int64(time.Since(r.base) - t0)
}

// leaf returns the last-level table of va, creating tables on the way.
func (r *ruler) leaf(va uint64) *rulerNode {
	n := r.root
	for level := 3; level > 0; level-- {
		i := va >> (12 + 9*level) & 511
		if n.child[i] == nil {
			n.child[i] = &rulerNode{}
		}
		n = n.child[i]
	}
	return n
}

// block maps, faults in, reads back and unmaps one range of the shape.
func (r *ruler) block() {
	size := uint64(r.shape.pages) * page
	va := 1<<32 + r.slot%rulerSlots*size
	r.slot++
	tag := byte(r.slot) | 1
	r.syscall(func() { r.vas[va] = size })
	for p := uint64(0); p < uint64(r.shape.pages); p++ {
		a := va + p*page
		r.syscall(func() {
			l := r.leaf(a)
			pfn := r.free[len(r.free)-1]
			r.free = r.free[:len(r.free)-1]
			f := &r.frame[pfn]
			f.refs, f.flags, f.va = 1, 3, a
			l.pte[a>>12&511] = uint64(pfn)<<12 | 3
			r.tlb[a>>12%rulerTLB] = struct{ va, pfn uint64 }{a, uint64(pfn)}
			r.data[p*page+p%page] = tag
		})
	}
	for pass := 0; pass < r.shape.passes; pass++ {
		for _, p := range r.order {
			a := va + uint64(p)*page
			e := &r.tlb[a>>12%rulerTLB]
			if e.va != a {
				e.va, e.pfn = a, r.leaf(a).pte[a>>12&511]>>12
			}
			r.sum += r.frame[e.pfn].va + uint64(r.data[uint64(p)*page+uint64(p)%page])
		}
	}
	r.syscall(func() {
		delete(r.vas, va)
		for p := uint64(0); p < uint64(r.shape.pages); p++ {
			a := va + p*page
			l := r.leaf(a)
			pfn := uint32(l.pte[a>>12&511] >> 12)
			l.pte[a>>12&511] = 0
			r.frame[pfn].refs = 0
			r.free = append(r.free, pfn)
			if e := &r.tlb[a>>12%rulerTLB]; e.va == a {
				e.va = 0
			}
		}
	})
}
