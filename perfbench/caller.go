package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// kind classifies a timed call (and, in traced runs, the round span).
type kind uint8

const (
	kMmap   kind = iota // Mmap or MmapFixed
	kMunmap             // Munmap
	kFault              // first-touch Touch or Store
	kLoad               // Load
	kRound              // the round span (traced runs only)
	nKinds
)

var kindNames = [nKinds]string{"mmap", "munmap", "fault", "load", "round"}

// sample is one timed call: its host time and the index of the
// timed-window slice it fell in, whose surrounding ruler slices convert
// it to ruler operations (see runWindow).
type sample struct{ ns, slice uint32 }

// samples keeps one call kind's sampled latencies in time order in a
// preallocated buffer, so a long window never grows the host heap. When
// the buffer is full, every other sample is dropped and from then on
// only every second offered sample is kept, so the kept samples stay
// evenly spread over the whole window.
type samples struct {
	s      []sample
	stride int // one offered sample in stride is kept
	skip   int
}

func newSamples(capacity int) *samples { return &samples{s: make([]sample, 0, capacity), stride: 1} }

func (s *samples) add(ns int64, slice int) {
	if s.skip++; s.skip < s.stride {
		return
	}
	s.skip = 0
	if len(s.s) == cap(s.s) {
		half := len(s.s) / 2
		for i := 0; i < half; i++ {
			s.s[i] = s.s[2*i]
		}
		s.s = s.s[:half]
		s.stride *= 2
	}
	s.s = append(s.s, sample{uint32(min(ns, math.MaxUint32)), uint32(slice)})
}

// span is one traced interval. Call spans are children of the round
// span with the same round ID on the same log.
type span struct {
	start int64 // ns since the run's time base
	dur   uint32
	round uint32
	kind  kind
}

// spanLog holds one core's spans on one lane, preallocated so tracing
// does not allocate inside the window.
type spanLog struct {
	s []span
}

func (l *spanLog) room(n int) bool { return cap(l.s)-len(l.s) >= n }

// caller issues one core's calls into one lane's memory manager: it
// counts every call, times the sampled ones (every call when tracing)
// and runs the output checks.
type caller struct {
	sys   mm.MM
	core  int
	base  time.Time
	every [nKinds]int
	lat   [nKinds]*samples
	seen  [nKinds]uint64
	// sampling is set inside untraced timed windows only; slice is the
	// index of the window's current slice.
	sampling bool
	slice    int

	calls, failed uint64
	firstErr      error
	// bad is the first failed output check; it fails the run.
	bad error

	spans *spanLog // non-nil inside a traced window
	// lastSpans is the log of the last traced window.
	lastSpans *spanLog
	round     uint32

	// probe enables the segv probes after unmaps (off in the count
	// segment, so its counters hold the workload's calls alone).
	probe  bool
	probes uint64
	// peaks is non-nil in the count segment, where simulated memory is
	// sampled at round boundaries.
	peaks *peaks
}

// startSampling gives the caller empty latency buffers and starts
// sampling.
func (c *caller) startSampling() {
	for k := kMmap; k < kRound; k++ {
		c.lat[k] = newSamples(sampleCap)
		c.seen[k] = 0
	}
	c.sampling = true
}

func (c *caller) now() int64 { return int64(time.Since(c.base)) }

func (c *caller) begin(k kind) int64 {
	c.calls++
	if c.spans == nil {
		if !c.sampling {
			return -1
		}
		c.seen[k]++
		if c.seen[k]%uint64(c.every[k]) != 0 {
			return -1
		}
	}
	return c.now()
}

func (c *caller) end(k kind, t0 int64, err error) bool {
	if t0 >= 0 {
		d := c.now() - t0
		if c.spans != nil {
			c.spans.s = append(c.spans.s, span{start: t0, dur: uint32(d), round: c.round, kind: k})
		} else {
			c.lat[k].add(d, c.slice)
		}
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return false
	}
	return true
}

// doRound runs one round, wrapped in a round span when tracing.
func (c *caller) doRound(f roundFunc, r int) {
	if c.spans == nil {
		f(c, r)
		return
	}
	c.round = uint32(r)
	t0 := c.now()
	f(c, r)
	c.spans.s = append(c.spans.s, span{start: t0, dur: uint32(c.now() - t0), round: c.round, kind: kRound})
}

func (c *caller) mmap(size uint64) (arch.Vaddr, bool) {
	t := c.begin(kMmap)
	va, err := c.sys.Mmap(c.core, size, arch.PermRW, 0)
	return va, c.end(kMmap, t, err)
}

func (c *caller) mmapFixed(va arch.Vaddr, size uint64) bool {
	t := c.begin(kMmap)
	return c.end(kMmap, t, c.sys.MmapFixed(c.core, va, size, arch.PermRW, 0))
}

func (c *caller) munmap(va arch.Vaddr, size uint64) bool {
	t := c.begin(kMunmap)
	return c.end(kMunmap, t, c.sys.Munmap(c.core, va, size))
}

// touchW is a first-touch write access without data.
func (c *caller) touchW(va arch.Vaddr) bool {
	t := c.begin(kFault)
	return c.end(kFault, t, c.sys.Touch(c.core, va, pt.AccessWrite))
}

// store is a first-touch write of one byte.
func (c *caller) store(va arch.Vaddr, b byte) bool {
	t := c.begin(kFault)
	return c.end(kFault, t, c.sys.Store(c.core, va, b))
}

// loadExpect loads one byte and checks it against want.
func (c *caller) loadExpect(va arch.Vaddr, want byte) {
	t := c.begin(kLoad)
	b, err := c.sys.Load(c.core, va)
	if c.end(kLoad, t, err) && b != want && c.bad == nil {
		c.bad = fmt.Errorf("%s: core %d: load %#x read %#x, want %#x", c.sys.Name(), c.core, va, b, want)
	}
}

// segvProbe checks, outside the counted and timed calls, that a page
// the round just unmapped faults with mm.ErrSegv.
func (c *caller) segvProbe(va arch.Vaddr) {
	c.probes++
	if _, err := c.sys.Load(c.core, va); !errors.Is(err, mm.ErrSegv) && c.bad == nil {
		c.bad = fmt.Errorf("%s: core %d: load of unmapped %#x returned %v, want %v", c.sys.Name(), c.core, va, err, mm.ErrSegv)
	}
}

// quantile returns the q-quantile of v, linearly interpolated between
// order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// blockQuantile splits time-ordered samples into contiguous blocks of at
// least minBlock samples (at most maxBlocks of them) and returns the
// median over the blocks of each block's q-quantile, so a burst of host
// interference inside one block moves the result little. With fewer than
// 2×minBlock samples it is the plain quantile.
func blockQuantile(v []float64, q float64) float64 {
	blocks := max(1, min(maxBlocks, len(v)/minBlock))
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		per = append(per, quantile(v[b*len(v)/blocks:(b+1)*len(v)/blocks], q))
	}
	return medianF(per)
}

// medianF is the median of float values.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
