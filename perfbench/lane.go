package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"cortenmm/internal/bench"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/tlb"
)

const (
	// frames is the simulated physical memory of every machine: 2^20
	// 4-KiB frames (4 GiB), as bench.NewEnv builds it.
	frames = 1 << 20
	// minBlock and maxBlocks shape the latency percentiles: the median
	// over up to maxBlocks contiguous blocks of at least minBlock samples,
	// so every block's p99 has ten samples beyond it.
	minBlock, maxBlocks = 1000, 64
	// setupReps: set-up is repeated and its median reported.
	setupReps = 15
	// sampleCap bounds the latency samples kept per call kind and core.
	sampleCap = 1 << 18
	// spanBudget bounds the spans of a traced window over all lanes and
	// cores (24 bytes each).
	spanBudget = 1 << 20
	// One cycle of a timed window runs a corten-adv slice, a ruler
	// slice, a linux slice and a ruler slice, after one ruler slice at
	// the start, so every corten-adv slice has a ruler slice right
	// before and right after it.
	cortenSlice = 90 * time.Millisecond
	linuxSlice  = 40 * time.Millisecond
	rulerSlice  = 10 * time.Millisecond
	cycleLen    = cortenSlice + linuxSlice + 2*rulerSlice
)

// lane is one memory manager on its own machine, replaying the
// workload's stream on each of its cores.
type lane struct {
	name    string
	env     *bench.Env
	callers []*caller
	next    []int // next round per core
	round   roundFunc
}

func newLane(sys bench.System, cores int) (*lane, error) {
	env, err := bench.NewEnv(sys, cores, frames, nil)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", sys, err)
	}
	return &lane{name: string(sys), env: env}, nil
}

// setup builds the corten-adv lane setupReps times and keeps the last.
// It returns the build times in seconds and the live host heap just
// before the kept build, so that corten-adv's own heap can be told from
// the benchmark's and the linux lane's.
func setup(w *workload) (l *lane, times []float64, heap0 uint64, err error) {
	for rep := 0; rep < setupReps; rep++ {
		l = nil
		heap0 = liveHeap()
		t0 := time.Now()
		if l, err = newLane(bench.CortenAdv, w.cores); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return l, times, heap0, nil
}

func (l *lane) init(w *workload, round roundFunc, base time.Time) {
	l.round = round
	l.next = make([]int, w.cores)
	for core := 0; core < w.cores; core++ {
		l.callers = append(l.callers, &caller{sys: l.env.Sys, core: core, base: base, every: w.every})
	}
}

func (l *lane) setProbe(on bool) {
	for _, c := range l.callers {
		c.probe = on
	}
}

func (l *lane) calls() uint64 {
	var n uint64
	for _, c := range l.callers {
		n += c.calls
	}
	return n
}

// run runs rounds on every core of the lane, each core on its own
// goroutine when there are several: n rounds per core, or, when
// deadline is set, rounds until the deadline (and, when tracing, until
// a core's span log cannot hold another round of room spans). It
// returns the wall time from start until every core finished.
func (l *lane) run(n int, deadline time.Time, room int) time.Duration {
	t0 := time.Now()
	loop := func(core int) {
		c := l.callers[core]
		for i := 0; deadline.IsZero() && i < n || !deadline.IsZero() && time.Now().Before(deadline); i++ {
			if c.spans != nil && !c.spans.room(room) {
				return
			}
			r := l.next[core]
			l.next[core]++
			c.doRound(l.round, r)
		}
	}
	if len(l.callers) == 1 {
		loop(0)
		return time.Since(t0)
	}
	var wg sync.WaitGroup
	for core := range l.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(core)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// peaks samples simulated memory at round boundaries of the count
// segment.
type peaks struct {
	m                   *cpusim.Machine
	pt, anon, rcuQueued int64
}

func (p *peaks) sample() {
	if p == nil {
		return
	}
	p.pt = max(p.pt, p.m.Phys.KindFrames(mem.KindPT))
	p.anon = max(p.anon, p.m.Phys.KindFrames(mem.KindAnon))
	p.rcuQueued = max(p.rcuQueued, int64(p.m.RCU.Stats().Pending))
}

// segment is what a lane's count segment measured: counter deltas over
// a fixed number of rounds, so they repeat exactly where the workload
// is deterministic.
type segment struct {
	calls, faults, softFaults uint64
	tlb                       tlb.Stats
	rcuDeferred               uint64
	ptPeak, anonPeak, rcuPeak int64
}

func (l *lane) countSegment(n int) segment {
	m := l.env.Machine
	ps := make([]*peaks, len(l.callers))
	for i, c := range l.callers {
		ps[i] = &peaks{m: m}
		c.peaks = ps[i]
		c.probe = false
	}
	calls0, st0, tlb0, rcu0 := l.calls(), l.env.Sys.Stats().Snapshot(), m.TLBStats(), m.RCU.Stats()
	l.run(n, time.Time{}, 0)
	calls1, st1, tlb1, rcu1 := l.calls(), l.env.Sys.Stats().Snapshot(), m.TLBStats(), m.RCU.Stats()
	s := segment{
		calls:       calls1 - calls0,
		faults:      st1.PageFaults - st0.PageFaults,
		softFaults:  st1.SoftFaults - st0.SoftFaults,
		tlb:         tlbDelta(tlb1, tlb0),
		rcuDeferred: rcu1.Deferred - rcu0.Deferred,
	}
	for i, c := range l.callers {
		c.peaks = nil
		c.probe = true
		s.ptPeak = max(s.ptPeak, ps[i].pt)
		s.anonPeak = max(s.anonPeak, ps[i].anon)
		s.rcuPeak = max(s.rcuPeak, ps[i].rcuQueued)
	}
	return s
}

func tlbDelta(a, b tlb.Stats) tlb.Stats {
	return tlb.Stats{
		Lookups: a.Lookups - b.Lookups, Hits: a.Hits - b.Hits,
		Shootdowns: a.Shootdowns - b.Shootdowns, IPIs: a.IPIs - b.IPIs,
		Filtered: a.Filtered - b.Filtered, Deferred: a.Deferred - b.Deferred,
		Applied: a.Applied - b.Applied, GenBumps: a.GenBumps - b.GenBumps,
		Evictions: a.Evictions - b.Evictions, StaleDrops: a.StaleDrops - b.StaleDrops,
	}
}

// window is what one timed window measured, per lane (0 = corten-adv,
// 1 = linux); the host counters cover the corten-adv slices only.
type window struct {
	calls    [2]uint64
	dur      [2]time.Duration
	kernelNs [2]uint64
	// rates holds each slice's calls per second; ropNs holds, for each
	// corten-adv slice, the ruler's mean ns per operation in the ruler
	// slices right before and after it.
	rates                    [2][]float64
	ropNs                    []float64
	mallocs, allocBytes, gcs uint64
}

// rate is the lane's median slice throughput in calls per second: the
// median, not the total, because the host's own interference comes in
// bursts shorter than a slice.
func (w *window) rate(lane int) float64 { return medianF(w.rates[lane]) }

// opsVsRuler is corten-adv's throughput over the ruler's: the median over
// corten-adv slices of the slice's calls per second times the ruler's
// time per operation around it.
func (w *window) opsVsRuler() float64 {
	r := make([]float64, len(w.ropNs))
	for i, ns := range w.ropNs {
		r[i] = w.rates[0][i] * ns / 1e9
	}
	return medianF(r)
}

// runWindow runs cycles of slices (see cycleLen) until the window's
// total time is used. The host's speed drifts between runs, and between
// seconds of one run, by more than any bound would tolerate; the ruler
// slices around each corten-adv slice measure that speed, and the gated
// figures are expressed in the ruler's time per operation. An untraced
// window samples call latencies afresh, each sample tagged with its
// slice. A traced window gives every caller a span log instead and ends
// early once a log cannot hold another round.
func runWindow(lanes []*lane, rl *ruler, total time.Duration, traced bool, maxCalls int) window {
	var w window
	cycles := max(1, int((total+cycleLen/2)/cycleLen))
	scale := func(d time.Duration) time.Duration { return d * total / (time.Duration(cycles) * cycleLen) }
	room := maxCalls + 1
	per := spanBudget / (len(lanes) * len(lanes[0].callers))
	for _, l := range lanes {
		for _, c := range l.callers {
			if traced {
				c.spans = &spanLog{s: make([]span, 0, per)}
			} else {
				c.startSampling()
			}
		}
	}
	var ms0, ms1 runtime.MemStats
	before := rl.run(scale(rulerSlice))
	for s := 0; s < cycles; s++ {
		for i, l := range lanes {
			for _, c := range l.callers {
				c.slice = s
			}
			calls0, kns0 := l.calls(), l.env.Sys.Stats().KernelNanos.Load()
			if i == 0 {
				runtime.ReadMemStats(&ms0)
			}
			d := l.run(-1, time.Now().Add(scale([2]time.Duration{cortenSlice, linuxSlice}[i])), room)
			if i == 0 {
				runtime.ReadMemStats(&ms1)
				w.mallocs += ms1.Mallocs - ms0.Mallocs
				w.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				w.gcs += uint64(ms1.NumGC - ms0.NumGC)
			}
			n := l.calls() - calls0
			w.calls[i] += n
			w.dur[i] += d
			w.rates[i] = append(w.rates[i], float64(n)/d.Seconds())
			w.kernelNs[i] += l.env.Sys.Stats().KernelNanos.Load() - kns0
			after := rl.run(scale(rulerSlice))
			if i == 0 {
				w.ropNs = append(w.ropNs, (before+after)/2)
			}
			before = after
		}
		if traced && (lanes[0].spansFull(room) || lanes[1].spansFull(room)) {
			break
		}
	}
	for _, l := range lanes {
		for _, c := range l.callers {
			c.sampling = false
			if traced {
				c.spans, c.lastSpans = nil, c.spans
			}
		}
	}
	return w
}

func (l *lane) spansFull(room int) bool {
	for _, c := range l.callers {
		if !c.spans.room(room) {
			return true
		}
	}
	return false
}

// latencies merges the lane's sampled latencies of one call kind over
// its cores, each converted by conv (core by core, so each core's
// samples stay in time order).
func (l *lane) latencies(k kind, conv func(sample) float64) []float64 {
	var v []float64
	for _, c := range l.callers {
		for _, s := range c.lat[k].s {
			v = append(v, conv(s))
		}
	}
	return v
}

// liveHeap is the host heap still live after a full collection, in
// bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// finish drains deferred work, checks the page-table invariant and the
// frame table, destroys every space and returns the anonymous and
// page-table frames still allocated afterwards.
func finish(lanes []*lane) (int64, error) {
	var leaked int64
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, l := range lanes {
		m := l.env.Machine
		m.Quiesce()
		if a, ok := l.env.Sys.(*core.AddrSpace); ok {
			if err := a.CheckInvariants(); err != nil {
				note(fmt.Errorf("%s: page-table invariant: %w", l.name, err))
			}
		}
		l.env.Sys.Destroy(0)
		m.Quiesce()
		leaked += m.Phys.KindFrames(mem.KindAnon) + m.Phys.KindFrames(mem.KindPT)
		if rep := m.Phys.Audit(); !rep.Ok() {
			note(fmt.Errorf("%s: frame audit: %s", l.name, rep.String()))
		}
	}
	return leaked, firstErr
}

// writeSpans writes the last traced window's spans, one per line:
// lane, core, round, kind, start and end in ns since the run began.
// Call spans are children of the round span with the same lane, core
// and round.
func writeSpans(path string, lanes []*lane) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "lane\tcore\tround\tkind\tstart_ns\tend_ns")
	for _, l := range lanes {
		for _, c := range l.callers {
			for _, s := range c.lastSpans.s {
				fmt.Fprintf(bw, "%s\t%d\t%d\t%s\t%d\t%d\n", l.name, c.core, s.round, kindNames[s.kind], s.start, s.start+int64(s.dur))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarises a lane's last traced window: the median
// duration per call kind and the round spans' self time per call.
func (l *lane) spanStats() (med [nKinds]float64, loopNs float64) {
	var durs [nKinds][]float64
	var roundNs, callNs, calls float64
	for _, c := range l.callers {
		for _, s := range c.lastSpans.s {
			durs[s.kind] = append(durs[s.kind], float64(s.dur))
			if s.kind == kRound {
				roundNs += float64(s.dur)
			} else {
				callNs += float64(s.dur)
				calls++
			}
		}
	}
	for k := range durs {
		med[k] = quantile(durs[k], 0.5)
	}
	if calls > 0 {
		loopNs = (roundNs - callNs) / calls
	}
	return med, loopNs
}

// addLayerMetrics fills the per-layer metrics of a traced run from the
// count segments, the untraced window and the traced window.
func addLayerMetrics(out map[string]metric, lanes []*lane, segs [2]segment, win, traced window) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	cm, loopNs := lanes[0].spanStats()
	vm, _ := lanes[1].spanStats()
	for _, k := range []kind{kMmap, kMunmap, kFault, kLoad} {
		set("core."+kindNames[k]+"_ns", cm[k], "ns")
	}
	for _, k := range []kind{kMmap, kMunmap, kFault} {
		set("vma."+kindNames[k]+"_ns", vm[k], "ns")
	}
	set("bench.loop_ns", loopNs, "ns")
	per := func(n uint64, s segment) float64 { return float64(n) / float64(max(s.calls, 1)) }
	c, v := segs[0], segs[1]

	set("core.kernel_ns_per_op", float64(win.kernelNs[0])/float64(max(win.calls[0], 1)), "ns")
	set("core.faults_per_op", per(c.faults, c), "count")
	set("core.soft_faults_per_op", per(c.softFaults, c), "count")
	set("tlb.lookups_per_op", per(c.tlb.Lookups, c), "count")
	hit := 0.0
	if c.tlb.Lookups > 0 {
		hit = float64(c.tlb.Hits) / float64(c.tlb.Lookups)
	}
	set("tlb.hit_rate", hit, "ratio")
	set("tlb.shootdowns_per_op", per(c.tlb.Shootdowns, c), "count")
	set("tlb.ipis_per_op", per(c.tlb.IPIs, c), "count")
	set("tlb.filtered_per_op", per(c.tlb.Filtered, c), "count")
	set("tlb.deferred_per_op", per(c.tlb.Deferred, c), "count")
	set("tlb.applied_per_op", per(c.tlb.Applied, c), "count")
	set("tlb.genbumps_per_op", per(c.tlb.GenBumps, c), "count")
	set("tlb.evictions_per_op", per(c.tlb.Evictions, c), "count")
	set("tlb.stale_drops_per_op", per(c.tlb.StaleDrops, c), "count")
	set("mem.anon_kib_peak", float64(c.anonPeak*page/1024), "KiB")
	set("rcu.deferred_per_op", per(c.rcuDeferred, c), "count")
	set("rcu.pending_peak", float64(c.rcuPeak), "count")
	set("vma.faults_per_op", per(v.faults, v), "count")

	secs := win.dur[0].Seconds()
	set("host.allocs_per_op", float64(win.mallocs)/float64(max(win.calls[0], 1)), "count")
	set("host.alloc_bytes_per_op", float64(win.allocBytes)/float64(max(win.calls[0], 1)), "B")
	set("host.gc_per_s", float64(win.gcs)/secs, "1/s")
	set("host.ruler_op_ns", medianF(win.ropNs), "ns")
	set("e2e.ops_vs_linux", win.rate(0)/win.rate(1), "ratio")
	set("bench.trace_overhead", 1-traced.rate(0)/win.rate(0), "ratio")
}
