// Package sloreport defines the machine-readable report crisp load emits
// and the SLO baseline its -baseline flag gates it against. It is a plain
// data package — no serving imports — so the load harness, the checker and
// the CI job all speak the same schema without a dependency cycle.
package sloreport

import (
	"fmt"
	"math"
	"sort"
)

// ClassReport aggregates one QoS class's outcomes over a replay run (or,
// for Report.Aggregate, the whole run's).
type ClassReport struct {
	// Requests is every predict attempt of this class; Samples the rows they
	// carried. OK, Shed, Overloaded and Errors partition Requests: served,
	// dropped over-quota (ErrOverQuota → 429), dropped by admission control
	// (ErrOverloaded → 429), and failed any other way.
	Requests   int `json:"requests"`
	Samples    int `json:"samples"`
	OK         int `json:"ok"`
	Shed       int `json:"shed"`
	Overloaded int `json:"overloaded"`
	Errors     int `json:"errors"`
	// Latency percentiles over the OK requests, in milliseconds.
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
	// ShedRate is (Shed+Overloaded)/Requests — every 429, whichever limiter
	// produced it.
	ShedRate float64 `json:"shed_rate"`
}

// Summarize fills a ClassReport's latency fields from the OK-request
// latencies (milliseconds) and derives ShedRate. lat is sorted in place.
func (c *ClassReport) Summarize(lat []float64) {
	sort.Float64s(lat)
	c.P50MS = Percentile(lat, 0.50)
	c.P90MS = Percentile(lat, 0.90)
	c.P99MS = Percentile(lat, 0.99)
	c.P999MS = Percentile(lat, 0.999)
	if n := len(lat); n > 0 {
		c.MaxMS = lat[n-1]
		sum := 0.0
		for _, v := range lat {
			sum += v
		}
		c.MeanMS = sum / float64(n)
	}
	if c.Requests > 0 {
		c.ShedRate = float64(c.Shed+c.Overloaded) / float64(c.Requests)
	}
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// slice using nearest-rank, 0 when empty.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// Report is crisp load's machine-readable output: the run configuration
// echoed back (so a report is self-describing), per-class and aggregate
// outcome summaries, and the server-counter deltas that explain them.
type Report struct {
	// Config echo.
	Seed       int64   `json:"seed"`
	TargetRPS  float64 `json:"target_rps"`
	Duration   float64 `json:"duration_sec"`
	Tenants    int     `json:"tenants"`
	ZipfS      float64 `json:"zipf_s"`
	QoS        bool    `json:"qos"` // false: FIFO baseline run (-fifo)
	Precisions string  `json:"precisions"`

	// Outcomes.
	Classes   map[string]*ClassReport `json:"classes"`
	Aggregate ClassReport             `json:"aggregate"`
	// GoodputRPS is served requests per wall second — the number that must
	// not regress when QoS is on versus the FIFO baseline.
	GoodputRPS float64 `json:"goodput_rps"`
	// AchievedRPS is offered (sent) requests per wall second; well below
	// TargetRPS means the harness itself could not keep up and latency
	// numbers are suspect.
	AchievedRPS float64 `json:"achieved_rps"`

	// Server-counter deltas summed across the fleet for the run window.
	FlushSize     uint64 `json:"flush_size"`
	FlushLinger   uint64 `json:"flush_linger"`
	FlushDeadline uint64 `json:"flush_deadline"`
	FlushForced   uint64 `json:"flush_forced"`
}

// SLO is one class's acceptance thresholds; zero fields are unchecked, so a
// baseline only pins the dimensions it cares about.
type SLO struct {
	MaxP50MS    float64 `json:"max_p50_ms,omitempty"`
	MaxP99MS    float64 `json:"max_p99_ms,omitempty"`
	MaxP999MS   float64 `json:"max_p999_ms,omitempty"`
	MaxShedRate float64 `json:"max_shed_rate,omitempty"`
	// MinRequests guards the percentiles against vacuous passes: a run that
	// served fewer OK requests than this fails (a misconfigured harness
	// sheds everything and would otherwise sail through with p99 = 0).
	MinRequests int `json:"min_requests,omitempty"`
}

// Baseline is the checked-in SLO_baseline.json: per-class thresholds plus
// run-wide floors.
type Baseline struct {
	// Classes maps QoS class names ("gold", "standard", "batch",
	// "aggregate") to their thresholds.
	Classes map[string]SLO `json:"classes"`
	// MinGoodputRPS is the run-wide served-throughput floor.
	MinGoodputRPS float64 `json:"min_goodput_rps,omitempty"`
	// MinAchievedRPSFraction fails the gate when the harness offered less
	// than this fraction of the target rate (the run under-drove the server
	// and its latency numbers mean nothing). Zero: 0.9.
	MinAchievedRPSFraction float64 `json:"min_achieved_rps_fraction,omitempty"`
}

// Check compares a report against the baseline and returns one human-readable
// violation per broken threshold (empty: the run meets its SLOs).
func Check(r *Report, b *Baseline) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	frac := b.MinAchievedRPSFraction
	if frac == 0 {
		frac = 0.9
	}
	if r.TargetRPS > 0 && r.AchievedRPS < frac*r.TargetRPS {
		fail("harness under-drove the server: achieved %.1f rps of %.1f target (< %.0f%%)",
			r.AchievedRPS, r.TargetRPS, frac*100)
	}
	if b.MinGoodputRPS > 0 && r.GoodputRPS < b.MinGoodputRPS {
		fail("goodput %.1f rps below floor %.1f", r.GoodputRPS, b.MinGoodputRPS)
	}

	// Deterministic order so CI logs diff cleanly.
	names := make([]string, 0, len(b.Classes))
	for name := range b.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		slo := b.Classes[name]
		var cr *ClassReport
		if name == "aggregate" {
			cr = &r.Aggregate
		} else {
			cr = r.Classes[name]
		}
		if cr == nil {
			fail("%s: baseline names a class the report lacks", name)
			continue
		}
		if slo.MinRequests > 0 && cr.OK < slo.MinRequests {
			fail("%s: only %d requests served, baseline needs >= %d for meaningful percentiles",
				name, cr.OK, slo.MinRequests)
		}
		check := func(dim string, got, max float64) {
			if max > 0 && got > max {
				fail("%s: %s %.3f exceeds baseline %.3f", name, dim, got, max)
			}
		}
		check("p50_ms", cr.P50MS, slo.MaxP50MS)
		check("p99_ms", cr.P99MS, slo.MaxP99MS)
		check("p999_ms", cr.P999MS, slo.MaxP999MS)
		check("shed_rate", cr.ShedRate, slo.MaxShedRate)
	}
	return v
}
