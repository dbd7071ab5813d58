// Command perfbench is the repository benchmark. It drives the corten-adv
// memory manager, with the Linux-style vma baseline as a second lane,
// through one of three seeded workloads (churn, scan, shared), checks
// the outputs, and prints one JSON result line last:
//
//	go run . --workload churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. All timings
// are host time; the gated ones are expressed in the time of the ruler,
// a fixed yardstick of the host's speed timed between the lanes' slices.
// Simulated statistics are counts. README.md describes the workloads
// and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"cortenmm/internal/bench"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// spans, if set, is the file the traced run's spans are written to.
	spans string
}

func main() {
	name := flag.String("workload", "", "workload: churn, scan or shared")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := flag.String("spans", "", "file to write the traced run's spans to (tab-separated)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload churn|scan|shared --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	res, notes, err := run(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1, spans: *spans})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one benchmark run. A failed output check yields
// Correct == false with a note; err is reserved for runs that could not
// be carried out at all.
func run(w *workload, cfg config) (*result, []string, error) {
	round := w.build(rand.New(rand.NewSource(cfg.seed)))
	r := &result{Correct: true, Metrics: map[string]metric{}}
	var notes []string
	fail := func(format string, args ...any) {
		r.Correct = false
		notes = append(notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
	}

	// corten-adv is built, warmed and counted before the linux lane
	// exists, so its set-up time and live heap are its own.
	cl, setupTimes, heap0, err := setup(w)
	if err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("set-up times (s): %.4f", setupTimes))
	base := time.Now()
	var segs [2]segment
	cl.init(w, round, base)
	cl.setProbe(true)
	cl.run(w.warmup, time.Time{}, 0)
	segs[0] = cl.countSegment(w.count)
	// Taken after the fixed-length count segment rather than after the
	// timed window, whose round count follows the host's speed.
	heapMiB := float64(liveHeap()-heap0) / (1 << 20)

	lx, err := newLane(bench.Linux, w.cores)
	if err != nil {
		return nil, nil, err
	}
	lx.init(w, round, base)
	lx.setProbe(true)
	lx.run(w.warmup, time.Time{}, 0)
	segs[1] = lx.countSegment(w.count)
	lanes := []*lane{cl, lx}
	// Parity: both systems serve the same stream, so they must take the
	// same faults per call, or one of them is not doing the work.
	if c, v := segs[0], segs[1]; c.calls != v.calls || c.faults != v.faults {
		fail("fault parity: corten-adv %d faults in %d calls, linux %d faults in %d calls", c.faults, c.calls, v.faults, v.calls)
	}

	rl := newRuler(w.ruler)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var win, traced window
	if !cfg.traced {
		win = runWindow(lanes, rl, dur, false, w.maxCalls)
	} else {
		win = runWindow(lanes, rl, dur/2, false, w.maxCalls)
		traced = runWindow(lanes, rl, dur/2, true, w.maxCalls)
	}

	// Each lane's p50 and p99 per call kind in host ns are printed, and
	// reported as e2e.* for corten-adv in traced runs; the gated figures
	// express corten-adv's samples in ruler operations of their slice.
	inNs := func(s sample) float64 { return float64(s.ns) }
	inRops := func(s sample) float64 { return float64(s.ns) / win.ropNs[s.slice] }
	for i, l := range lanes {
		notes = append(notes, fmt.Sprintf("%s %.0f calls/s", l.name, win.rate(i)))
		for k := kMmap; k < kRound; k++ {
			ns := l.latencies(k, inNs)
			p50, p99 := blockQuantile(ns, 0.50), blockQuantile(ns, 0.99)
			// Printed because a p99 has ten samples beyond it only from
			// 1,000 samples on.
			notes = append(notes, fmt.Sprintf("%s %-6s p50 %10.1f ns  p99 %10.1f ns  samples %d",
				l.name, kindNames[k], p50, p99, len(ns)))
			if i > 0 {
				continue
			}
			if cfg.traced {
				r.Metrics["e2e."+kindNames[k]+"_p50_ns"] = metric{p50, "ns"}
				r.Metrics["e2e."+kindNames[k]+"_p99_ns"] = metric{p99, "ns"}
			} else {
				r.Metrics[kindNames[k]+"_p50_rops"] = metric{blockQuantile(l.latencies(k, inRops), 0.50), "rops"}
			}
		}
	}
	notes = append(notes, fmt.Sprintf("ruler %.2f ns per operation (median over slices)", medianF(win.ropNs)))
	if !cfg.traced {
		r.Metrics["ops_vs_ruler"] = metric{win.opsVsRuler(), "ratio"}
		r.Metrics["setup_s"] = metric{medianF(setupTimes), "s"}
		r.Metrics["pt_kib_peak"] = metric{float64(segs[0].ptPeak * page / 1024), "KiB"}
		r.Metrics["heap_live_mib"] = metric{heapMiB, "MiB"}
	} else {
		r.Metrics["e2e.ops_per_s"] = metric{win.rate(0), "calls/s"}
		r.Metrics["e2e.linux_ops_per_s"] = metric{win.rate(1), "calls/s"}
		addLayerMetrics(r.Metrics, lanes, segs, win, traced)
		probes, err := runProbes(lanes[0], w.cores)
		if err != nil {
			fail("probes: %v", err)
		}
		for k, v := range probes {
			r.Metrics[k] = metric{v, "ns"}
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, lanes); err != nil {
				return nil, nil, err
			}
		}
	}

	for _, l := range lanes {
		var probes uint64
		for _, c := range l.callers {
			probes += c.probes
			r.Attempted += c.calls
			r.Failed += c.failed
			if c.firstErr != nil {
				notes = append(notes, fmt.Sprintf("%s core %d: first failed call: %v", l.name, c.core, c.firstErr))
			}
			if c.bad != nil {
				fail("%v", c.bad)
			}
		}
		notes = append(notes, fmt.Sprintf("%s: %d segv probes", l.name, probes))
	}
	leaked, err := finish(lanes)
	if err != nil {
		fail("%v", err)
	}
	if leaked != 0 {
		fail("%d anonymous and page-table frames leaked after Destroy", leaked)
	}
	if cfg.traced {
		r.Metrics["mem.frames_leaked"] = metric{float64(leaked), "count"}
	}
	return r, notes, nil
}
