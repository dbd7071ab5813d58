package main

import (
	"fmt"
	"sync"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/locks"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
)

const (
	probeBatches = 200 // timed batches per probe and core
	probeBatch   = 100 // calls per timed batch
	probePages   = 8   // probe region: pages 0-3 touched, 4-7 mapped only
)

// timeOp runs op probeBatches×probeBatch times on each of cores cores at
// once and returns the median over all batches of the mean ns per call.
// With two cores the calls contend, as the shared workload's do.
func timeOp(cores int, op func(core int)) float64 {
	per := make([][]float64, cores)
	body := func(core int) {
		for b := 0; b < probeBatches; b++ {
			t0 := time.Now()
			for i := 0; i < probeBatch; i++ {
				op(core)
			}
			per[core] = append(per[core], float64(time.Since(t0))/probeBatch)
		}
	}
	var wg sync.WaitGroup
	for c := 1; c < cores; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	body(0)
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return medianF(all)
}

// runProbes times single layers from outside, on the corten-adv lane's
// warmed machine, against a probe region the benchmark maps itself.
func runProbes(l *lane, cores int) (map[string]float64, error) {
	a, ok := l.env.Sys.(*core.AddrSpace)
	if !ok {
		return nil, fmt.Errorf("lane %s is not a corten-adv space", l.name)
	}
	m := l.env.Machine
	asid := a.ASID()
	va, err := a.Mmap(0, probePages*page, arch.PermRW, 0)
	if err != nil {
		return nil, fmt.Errorf("map probe region: %w", err)
	}
	hot, cold := va, va+4*page
	for c := 0; c < cores; c++ {
		for p := arch.Vaddr(0); p < 4; p++ {
			if err := a.Touch(c, hot+p*page, pt.AccessWrite); err != nil {
				return nil, fmt.Errorf("touch probe region: %w", err)
			}
		}
		if _, ok := m.TLB.Lookup(c, asid, hot); !ok {
			return nil, fmt.Errorf("core %d: touched probe page not in the TLB", c)
		}
		if _, ok := m.TLB.Lookup(c, asid, cold); ok {
			return nil, fmt.Errorf("core %d: untouched probe page hit in the TLB", c)
		}
	}
	if _, ok := a.Tree().WalkAccess(hot, pt.AccessRead); !ok {
		return nil, fmt.Errorf("walk of a touched probe page failed")
	}

	out := map[string]float64{}
	var opErr error
	var errOnce sync.Once
	check := func(err error) {
		if err != nil {
			errOnce.Do(func() { opErr = err })
		}
	}

	out["core.tx_ns"] = timeOp(cores, func(c int) {
		cur, err := a.Lock(c, hot, hot+4*page)
		check(err)
		if err == nil {
			cur.Close()
		}
	})
	cur, err := a.Lock(0, va, va+probePages*page)
	if err != nil {
		return nil, fmt.Errorf("lock probe region: %w", err)
	}
	out["core.query_ns"] = timeOp(1, func(int) {
		_, err := cur.Query(hot + page)
		check(err)
	})
	cur.Close()

	vas := cpusim.NewPerCoreVA(cores)
	out["cpusim.valloc_ns"] = timeOp(cores, func(c int) {
		v, err := vas.Alloc(c, chunk)
		check(err)
		if err == nil {
			vas.Free(c, v, chunk)
		}
	})
	var mcs locks.MCS
	out["locks.mcs_ns"] = timeOp(cores, func(int) {
		mcs.Lock()
		mcs.Unlock()
	})
	out["pt.walk_ns"] = timeOp(cores, func(int) {
		if _, ok := a.Tree().WalkAccess(hot, pt.AccessRead); !ok {
			check(fmt.Errorf("walk of a touched probe page failed"))
		}
	})
	out["tlb.lookup_hit_ns"] = timeOp(cores, func(c int) {
		if _, ok := m.TLB.Lookup(c, asid, hot); !ok {
			check(fmt.Errorf("core %d: TLB hit probe missed", c))
		}
	})
	out["tlb.lookup_miss_ns"] = timeOp(cores, func(c int) {
		if _, ok := m.TLB.Lookup(c, asid, cold); ok {
			check(fmt.Errorf("core %d: TLB miss probe hit", c))
		}
	})
	out["mem.frame_ns"] = timeOp(cores, func(c int) {
		pfn, err := m.Phys.AllocFrame(c, mem.KindAnon)
		check(err)
		if err == nil {
			m.Phys.Put(c, pfn)
		}
	})
	out["rcu.read_ns"] = timeOp(cores, func(c int) {
		m.RCU.ReadLock(c)
		m.RCU.ReadUnlock(c)
	})

	if err := a.Munmap(0, va, probePages*page); err != nil {
		return nil, fmt.Errorf("unmap probe region: %w", err)
	}
	return out, opErr
}
