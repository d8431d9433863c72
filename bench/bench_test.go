package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/data"
)

// smokeSized is a production workload with just enough tenants to exercise
// every phase: the same code paths at 1 s windows, numbers that mean nothing.
func smokeSized(w workload) workload {
	if w.churn {
		w.tenants = churnHot + 4
		return w
	}
	w.tenants, w.tierTenants = 2, 2
	return w
}

// smoke runs one workload and checks the report against BENCHMARK.json: every
// metric named there is emitted, finite and in its unit, and nothing unnamed
// is emitted.
func smoke(t *testing.T, w workload, traced bool, want []specMetric) *report {
	t.Helper()
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	rep, err := run(smokeSized(w), runConfig{seed: 1, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("run not correct: %v", rep.Notes)
	}
	for _, p := range rep.Phases {
		if p.Attempted < 1 || p.Failed != 0 {
			t.Errorf("phase %s: attempted %d failed %d", p.Name, p.Attempted, p.Failed)
		}
	}
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is not finite", m.Name)
		}
	}
	for name := range rep.Metrics {
		if !named[name] {
			t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
		}
	}
	if s := rep.summary(); s.Attempted < 1 || s.Failed != 0 || !s.Correct {
		t.Errorf("summary attempted %d failed %d correct %v", s.Attempted, s.Failed, s.Correct)
	}
	return rep
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sp.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			smoke(t, w, false, sp.EndToEnd)
			rep := smoke(t, w, true, sp.PerLayer)
			for name, m := range rep.Metrics {
				// The layers in front of the server do work on the sharded
				// workload only; elsewhere they are absent and read 0.
				wire := strings.HasPrefix(name, "cluster.") || strings.HasPrefix(name, "api.")
				if wire && w.shards == 0 && m.Value != 0 {
					t.Errorf("%s = %v on an in-process workload, want 0", name, m.Value)
				}
			}
			if rep.Metrics["cluster.proxy_self_ms"].Value == 0 && w.shards > 0 {
				t.Error("cluster.proxy_self_ms = 0 on the sharded workload")
			}
			if w.churn {
				return
			}
			// The tier cache must not move on a workload whose tenants all
			// fit hot: these counters belong to tenant_churn alone.
			for _, name := range []string{"serve.promotions_total", "serve.demotions_total", "serve.restore_hits_total", "serve.warm_bytes"} {
				if v := rep.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v on an all-hot workload, want 0", name, v)
				}
			}
		})
	}
}

func TestTraceFollowsSeed(t *testing.T) {
	ds := data.New(dataCfg)
	for _, w := range workloads {
		a, err := genTrace(w, ds, 7, 2, 256, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genTrace(w, ds, 7, 2, 256, true)
		c, _ := genTrace(w, ds, 8, 2, 256, true)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 hashed to %s then %s", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 share trace hash %s", w.name, a.hash)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
