package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// -all, -calibrate and -compare are built from the single run: each run is a
// fresh child process, exactly what the driver starts, so nothing one run
// warmed up or left on the heap reaches the next.

// spec is the part of the root BENCHMARK.json the tools and tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root; the benchmark runs
// from its own directory (go run -C bench).
func loadSpec() (*spec, error) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	return &s, json.Unmarshal(b, &s)
}

// runChild runs one workload once in a child process and returns its report.
func runChild(workload string, seed int64, seconds float64, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: child printed %d lines, want the report and the summary", workload, len(lines))
	}
	var rep report
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return nil, fmt.Errorf("%s: parsing child report: %w", workload, err)
	}
	return &rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}

// runAll runs every workload once untraced and once traced and prints one
// report: every metric BENCHMARK.json names, by name, with its unit, sample
// count and quartiles, and the operations each phase attempted.
func runAll(seed int64, seconds float64, out string) error {
	var reports []*report
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			rep, err := runChild(w.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
	}
	return writeJSON(out, map[string]any{"runs": reports})
}

// calibration is what -calibrate measured and -compare reads.
type calibration struct {
	Runs    int                           `json:"runs"`
	Seconds float64                       `json:"seconds"`
	Host    hostInfo                      `json:"host"`
	Pairs   map[string]map[string]*spread `json:"pairs"` // workload → end-to-end metric → spread
	// GenLagP99MS is each open-loop run's generator lag, by workload.
	GenLagP99MS map[string][]float64 `json:"gen_lag_p99_ms,omitempty"`
}

// spread summarises one (workload, metric) pair over the calibration runs.
type spread struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// IQR is (Q3-Q1)/median with Python's quartiles: the spread the driver
	// holds against the bound. Range is (max-min)/median.
	IQR   float64 `json:"iqr_share"`
	Range float64 `json:"range_share"`
}

// runCalibrate runs every workload n times on this build, each with another
// seed, and writes the spreads to CALIBRATION.md next to the bounds they
// justify.
func runCalibrate(n int, seconds float64, out string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	cal := &calibration{Runs: n, Seconds: seconds, Host: readHost(), Pairs: map[string]map[string]*spread{}, GenLagP99MS: map[string][]float64{}}
	for _, w := range workloads {
		pairs := map[string]*spread{}
		for seed := int64(1); seed <= int64(n); seed++ {
			rep, err := runChild(w.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: run was not correct: %s", w.name, seed, strings.Join(rep.Notes, "; "))
			}
			if rep.GenLag != nil {
				cal.GenLagP99MS[w.name] = append(cal.GenLagP99MS[w.name], rep.GenLag.Value)
			}
			for name, m := range rep.Metrics {
				if pairs[name] == nil {
					pairs[name] = &spread{Unit: m.Unit}
				}
				pairs[name].Values = append(pairs[name].Values, m.Value)
			}
		}
		for _, s := range pairs {
			s.Median, s.IQR, s.Range = median(s.Values), iqrShare(s.Values), rangeShare(s.Values)
		}
		cal.Pairs[w.name] = pairs
	}
	if err := os.WriteFile("CALIBRATION.md", []byte(cal.markdown(sp)), 0o644); err != nil {
		return err
	}
	return writeJSON(out, cal)
}

// markdown renders the calibration with each pair's verdict against its
// bound: a pair is steady when its quartile spread is at most a third of the
// bound.
func (cal *calibration) markdown(sp *spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Calibration\n\n")
	fmt.Fprintf(&b, "Written by `go run -C bench repro/bench -calibrate %d -seconds %g` on %s: every workload run %d times on one build, each run with another seed (the driver varies the seed too, so this is the spread it will see).\n",
		cal.Runs, cal.Seconds, time.Now().UTC().Format("2006-01-02"), cal.Runs)
	fmt.Fprintf(&b, "Host: %d cores, GOMAXPROCS %d, %s, 1-minute load average %.2f at start.\n\n",
		cal.Host.NProc, cal.Host.GOMAXPROCS, cal.Host.GoVersion, cal.Host.LoadAvg1)
	fmt.Fprintf(&b, "`iqr` is (Q3−Q1)/median with the quartiles of Python's `statistics.quantiles(values, n=4)` — the spread the driver holds against the bound; `range` is (max−min)/median. A pair is **steady** when `iqr` is at most a third of its bound. A timing that cannot hold that on every workload is not an end-to-end metric here: it is measured by the traced run as a per-layer metric instead (README.md, \"End-to-end metrics\").\n\n")
	for _, w := range sp.Workloads {
		fmt.Fprintf(&b, "## %s\n\n| metric | unit | median | iqr | range | bound | verdict |\n|---|---|---|---|---|---|---|\n", w.Name)
		for _, m := range sp.EndToEnd {
			s := cal.Pairs[w.Name][m.Name]
			if s == nil {
				fmt.Fprintf(&b, "| %s | %s | not reported | | | %.0f %% | **missing** |\n", m.Name, m.Unit, 100*m.Bound)
				continue
			}
			verdict := "steady"
			switch {
			case m.Name == "setup_s":
				verdict = "spread not gated by the driver; the drift of its median is"
			case s.IQR > m.Bound:
				verdict = "**too noisy**"
			case s.IQR > m.Bound/3:
				verdict = "above a third of its bound"
			}
			fmt.Fprintf(&b, "| %s | %s | %.6g | %.2f %% | %.2f %% | %.0f %% | %s |\n", m.Name, m.Unit, s.Median, 100*s.IQR, 100*s.Range, 100*m.Bound, verdict)
		}
		b.WriteString("\n")
		if lag := sorted(cal.GenLagP99MS[w.Name]); len(lag) > 0 {
			fmt.Fprintf(&b, "Generator lag (median of the sub-windows' p99s) over the %d runs: %.2f to %.2f ms; a run is invalid above %.0f ms.\n\n", len(lag), lag[0], lag[len(lag)-1], genLagLimitMS)
		}
	}
	return b.String()
}

// compareFiles prints, for every (workload, end-to-end metric) pair of two
// -calibrate -out files, whether new improved on base, stayed within the
// metric's bound, regressed, or cannot be resolved because the base runs
// spread wider than the bound. Every ratio is printed with its base.
func compareFiles(basePath, newPath string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	var base, next calibration
	for path, into := range map[string]*calibration{basePath: &base, newPath: &next} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, into); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Printf("%-14s %-26s %14s %14s %9s  %s\n", "workload", "metric", "base median", "new median", "change", "verdict")
	regressed := 0
	names := make([]string, 0, len(base.Pairs))
	for name := range base.Pairs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			b, n := base.Pairs[w][m.Name], next.Pairs[w][m.Name]
			if b == nil || n == nil {
				fmt.Printf("%-14s %-26s missing from one side\n", w, m.Name)
				continue
			}
			// worse > 0 means new is worse than base, as a share of base.
			worse := (n.Median - b.Median) / math.Abs(b.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case b.IQR > m.Bound:
				verdict = fmt.Sprintf("unresolved (base spread %.1f %% > bound)", 100*b.IQR)
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case -worse > b.IQR && wins(b.Values, n.Values, m.Better) >= 0.9:
				verdict = "improved"
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.2f%%  %s (bound %.0f %% of base %.6g %s)\n",
				w, m.Name, b.Median, n.Median, 100*(n.Median-b.Median)/math.Abs(b.Median), verdict, 100*m.Bound, b.Median, m.Unit)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d pair(s) regressed beyond their bound", regressed)
	}
	return nil
}

// wins is the share of (base, new) run pairs the new side wins, ties counting
// for neither.
func wins(base, next []float64, better string) float64 {
	won, decided := 0, 0
	for i := 0; i < min(len(base), len(next)); i++ {
		if base[i] == next[i] {
			continue
		}
		decided++
		if (next[i] < base[i]) == (better == "lower") {
			won++
		}
	}
	if decided == 0 {
		return 0
	}
	return float64(won) / float64(decided)
}
