package main

import (
	"math/rand"

	"cortenmm/internal/arch"
)

const (
	page      = arch.PageSize
	chunk     = 4 * page // the 16-KiB mapping of churn and shared
	scanPages = 4096     // 16 MiB: twice the 2,048-entry per-core TLB reach
	scanBytes = scanPages * page
	// sharedBase is the 8-MiB shared area: 512 chunk slots under four
	// leaf PT pages, in the low 4 GiB kept for fixed-address mappings.
	sharedBase  = arch.Vaddr(1 << 30)
	sharedSlots = 512

	// loadEvery: every loadEvery rounds, churn and shared make one of the
	// chunk's four first touches a Store of a seeded byte and read it
	// back with a Load. A Store allocates the page's 4-KiB host backing,
	// so doing it every round would turn these fixed-cost workloads into
	// host-allocation workloads; a Load of a page never written would
	// allocate it inside the Load instead.
	loadEvery = 8
	// probeEvery: churn and shared check a just-unmapped page for
	// ErrSegv every probeEvery rounds; scan checks four pages a round.
	probeEvery = 64
	// streamLen is the length of each pre-generated input stream; round
	// r uses entry r % streamLen.
	streamLen = 4096
)

// roundFunc runs round r of a workload on one core of one lane.
type roundFunc func(c *caller, r int)

// workload is one benchmark input set. The inputs are generated from the
// seed before any machine is built; both lanes replay the same stream.
type workload struct {
	name  string
	cores int
	// warmup and count are rounds per core before the timed window: the
	// count segment's counters and peaks give the count metrics, which
	// repeat exactly on the 1-core workloads for a given seed.
	warmup, count int
	// every is the 1-in-N latency sampling interval per call kind, chosen
	// so the clock reads of timing add little to the calls: churn and
	// shared time every 13th Mmap, Munmap and fault and every read-back
	// Load; scan, whose rounds hold one Mmap and one Munmap among about
	// 12k calls, times each of those and every 13th fault and Load.
	every [nKinds]int
	// ruler is the shape of the ruler's block, the workload's own: the
	// host-speed yardstick runs the same kind of work (see ruler).
	ruler rulerShape
	// maxCalls bounds the calls of one round (span-log room).
	maxCalls int
	build    func(rng *rand.Rand) roundFunc
}

var workloads = map[string]*workload{
	// churn: 1 core, closed loop of mmap 16 KiB, write-touch its 4
	// pages, munmap. Every call is a syscall or a first-touch fault on a
	// tiny working set, so per-call fixed costs dominate (Fig 1/13).
	"churn": {
		name: "churn", cores: 1, warmup: 20000, count: 8192,
		every:    [nKinds]int{13, 13, 13, 1},
		ruler:    rulerShape{pages: 4, passes: 1},
		maxCalls: 7,
		build:    buildChunked(false),
	},
	// scan: 1 core, map 16 MiB, store a round tag to every page in
	// order, two passes of loads in seeded random order, one munmap.
	// The access path (TLB, hardware walk, RCU read section) and the
	// first-touch fault path with its host page backing dominate.
	"scan": {
		name: "scan", cores: 1, warmup: 4, count: 8,
		every:    [nKinds]int{1, 1, 13, 13},
		ruler:    rulerShape{pages: scanPages, passes: 2},
		maxCalls: 2 + 3*scanPages,
		build:    buildScan,
	},
	// shared: 2 cores, closed loop of MmapFixed 16 KiB at a seeded slot
	// of the core's own interleaved half of one 8-MiB area, write-touch,
	// munmap. Both cores lock the same four leaf PT pages and share one
	// ASID and the space's bookkeeping (Fig 14 high contention).
	"shared": {
		name: "shared", cores: 2, warmup: 10000, count: 4096,
		every:    [nKinds]int{13, 13, 13, 1},
		ruler:    rulerShape{pages: 4, passes: 1},
		maxCalls: 7,
		build:    buildChunked(true),
	},
}

// chunkInputs drive churn and shared: per round, the order in which
// the chunk's pages are touched, the page stored to and read back with
// its byte, and the page probed after the unmap; for shared, also each
// core's slot sequence.
type chunkInputs struct {
	order [streamLen][4]uint8
	load  [streamLen]uint8
	tag   [streamLen]byte
	probe [streamLen]uint8
	slots [2][streamLen]uint16
}

func buildChunked(shared bool) func(rng *rand.Rand) roundFunc {
	return func(rng *rand.Rand) roundFunc {
		in := new(chunkInputs)
		for i := range in.order {
			for j, p := range rng.Perm(4) {
				in.order[i][j] = uint8(p)
			}
			in.load[i] = uint8(rng.Intn(4))
			in.tag[i] = byte(1 + rng.Intn(255))
			in.probe[i] = uint8(rng.Intn(4))
			for c := range in.slots {
				// Core c owns the slots s with s%2 == c, so both cores
				// spread over all four leaf PT pages of the area.
				in.slots[c][i] = uint16(2*rng.Intn(sharedSlots/2) + c)
			}
		}
		return func(c *caller, r int) {
			i := r % streamLen
			var va arch.Vaddr
			if shared {
				va = sharedBase + arch.Vaddr(in.slots[c.core][i])*chunk
				if !c.mmapFixed(va, chunk) {
					return
				}
			} else {
				var ok bool
				if va, ok = c.mmap(chunk); !ok {
					return
				}
			}
			readBack := r%loadEvery == 0
			for _, p := range in.order[i] {
				if readBack && p == in.load[i] {
					c.store(va+arch.Vaddr(p)*page, in.tag[i])
				} else {
					c.touchW(va + arch.Vaddr(p)*page)
				}
			}
			if readBack {
				c.loadExpect(va+arch.Vaddr(in.load[i])*page, in.tag[i])
			}
			c.peaks.sample()
			c.munmap(va, chunk)
			c.peaks.sample()
			if c.probe && r%probeEvery == 0 {
				c.segvProbe(va + arch.Vaddr(in.probe[i])*page)
			}
		}
	}
}

// scanInputs: per round a tag byte; per page a byte offset; a pool of
// page permutations (round r's passes use perms (2r) and (2r+1) mod
// the pool); per round four pages probed after the unmap.
type scanInputs struct {
	tags  [streamLen]byte
	offs  [scanPages]uint16
	perms [16][scanPages]uint16
	probe [streamLen][4]uint16
}

func buildScan(rng *rand.Rand) roundFunc {
	in := new(scanInputs)
	for i := range in.tags {
		in.tags[i] = byte(1 + rng.Intn(255))
		for j := range in.probe[i] {
			in.probe[i][j] = uint16(rng.Intn(scanPages))
		}
	}
	for p := range in.offs {
		in.offs[p] = uint16(rng.Intn(page))
	}
	for k := range in.perms {
		for j, p := range rng.Perm(scanPages) {
			in.perms[k][j] = uint16(p)
		}
	}
	return func(c *caller, r int) {
		i := r % streamLen
		tag := in.tags[i]
		va, ok := c.mmap(scanBytes)
		if !ok {
			return
		}
		for p := range in.offs {
			c.store(va+arch.Vaddr(p)*page+arch.Vaddr(in.offs[p]), tag)
		}
		for pass := 0; pass < 2; pass++ {
			for _, p := range in.perms[(2*r+pass)%len(in.perms)] {
				c.loadExpect(va+arch.Vaddr(p)*page+arch.Vaddr(in.offs[p]), tag)
			}
		}
		c.peaks.sample()
		c.munmap(va, scanBytes)
		c.peaks.sample()
		if c.probe {
			for _, p := range in.probe[i] {
				c.segvProbe(va + arch.Vaddr(p)*page)
			}
		}
	}
}
