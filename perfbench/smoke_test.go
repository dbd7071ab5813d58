package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of ../BENCHMARK.json the smoke test checks.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func smokeRun(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", name)
	}
	r, notes, err := run(w, config{seed: seed, seconds: 0.6, traced: traced})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, r.Correct, r.Attempted, r.Failed, strings.Join(notes, "\n"))
	}
	return r
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that it passes its own checks and reports exactly the metrics of
// BENCHMARK.json with their units.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		checkMetrics(t, w.Name+" untraced", smokeRun(t, w.Name, 1, false).Metrics, c.EndToEnd)
		checkMetrics(t, w.Name+" traced", smokeRun(t, w.Name, 1, true).Metrics, c.PerLayer)
	}
}

// TestCountsRepeat checks that the count metrics of the 1-core workloads
// repeat exactly for a given seed.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"core.faults_per_op", "core.soft_faults_per_op", "tlb.lookups_per_op", "tlb.hit_rate",
		"tlb.shootdowns_per_op", "tlb.ipis_per_op", "tlb.filtered_per_op", "tlb.deferred_per_op",
		"tlb.applied_per_op", "tlb.genbumps_per_op", "tlb.evictions_per_op", "tlb.stale_drops_per_op",
		"mem.anon_kib_peak", "rcu.deferred_per_op", "rcu.pending_peak", "vma.faults_per_op",
	}
	for _, name := range []string{"churn", "scan"} {
		a, b := smokeRun(t, name, 7, true), smokeRun(t, name, 7, true)
		for _, k := range counts {
			if a.Metrics[k] != b.Metrics[k] {
				t.Errorf("%s: %s = %v, then %v", name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
		x, y := smokeRun(t, name, 7, false), smokeRun(t, name, 7, false)
		if x.Metrics["pt_kib_peak"] != y.Metrics["pt_kib_peak"] {
			t.Errorf("%s: pt_kib_peak = %v, then %v", name, x.Metrics["pt_kib_peak"].Value, y.Metrics["pt_kib_peak"].Value)
		}
	}
}
