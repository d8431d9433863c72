// Command bench is the repository's one benchmark: four seeded workloads
// over the CRISP serving stack, four end-to-end metrics per workload, and a
// traced ladder that splits a request's time by layer. BENCHMARK.json at the
// repository root names the workloads, the metrics and their regression
// bounds; README.md in this directory explains what each one is for.
//
// One run measures one workload:
//
//	go run -C bench repro/bench --workload conv_b16 --seed 1 --seconds 12 --trace 0
//
// prints the full report (one JSON line) followed by the summary line the
// driver reads. --trace 1 serves the same window, then walks the ladder, and
// prints the per-layer metrics. -all, -calibrate N and -compare a.json b.json are built from that
// single run (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// report is everything one run learned. The driver reads only the summary
// line derived from it; -all, -calibrate and -compare read the whole thing.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	TraceHash string            `json:"trace_hash"`
	Correct   bool              `json:"correct"`
	Phases    []phase           `json:"phases"`
	Metrics   map[string]metric `json:"metrics"`
	// GenLag is how late the open-loop generator sent its requests: the
	// median of the sub-windows' p99s. A run whose lag passes genLagLimitMS
	// is not correct.
	GenLag *metric  `json:"gen_lag_ms,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// phase counts the operations one phase of a run attempted. A refused,
// failed or wrong-answer operation is a failure.
type phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// metric is one reported number. Timings carry the sample count and
// quartiles of the samples the value summarises; counts carry the value only.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples,omitempty"`
	Q1      *float64 `json:"q1,omitempty"`
	Median  *float64 `json:"median,omitempty"`
	Q3      *float64 `json:"q3,omitempty"`
}

// hostInfo records what the run shared the machine with.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	// NoisyHost marks a run that started with the 1-minute load average
	// above nproc/2: its timings competed for cores and should be repeated.
	NoisyHost bool `json:"noisy_host"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), LoadAvg1: -1}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1 = v
			}
		}
	}
	h.NoisyHost = h.LoadAvg1 > float64(h.NProc)/2
	return h
}

// summary is the last line of standard output: the driver's contract.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) summary() summary {
	s := summary{Correct: r.Correct, Metrics: map[string]summaryValue{}}
	for _, p := range r.Phases {
		s.Attempted += p.Attempted
		s.Failed += p.Failed
	}
	for name, m := range r.Metrics {
		s.Metrics[name] = summaryValue{Value: m.Value, Unit: m.Unit}
	}
	return s
}

func main() {
	log.SetFlags(log.Lmicroseconds)
	log.SetPrefix("bench: ")
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "trace seed: tenant class sets, Zipf draws, inputs and request bodies derive from it")
		seconds      = flag.Float64("seconds", 12, "length of the measured serving window (ladder time with --trace 1)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: walk the ladder and report per-layer metrics")
		spansPath    = flag.String("spans", "", "with --trace 1, write the recorded spans to this file as JSON")
		all          = flag.Bool("all", false, "run every workload once, traced and untraced, and print one merged report")
		calibrate    = flag.Int("calibrate", 0, "run every workload N times on this build; print spreads and write CALIBRATION.md")
		compare      = flag.Bool("compare", false, "compare two -calibrate -out files: bench -compare base.json new.json")
		out          = flag.String("out", "", "with -all or -calibrate, also write the JSON result to this file")
	)
	flag.Parse()

	// The serving stack sizes its pools from GOMAXPROCS; cap it so a large
	// host and the 2-core reference box run the same shape of fleet.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare needs two files: base.json new.json")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
	case *calibrate > 0:
		if err := runCalibrate(*calibrate, *seconds, *out); err != nil {
			log.Fatal(err)
		}
	case *all:
		if err := runAll(*seed, *seconds, *out); err != nil {
			log.Fatal(err)
		}
	default:
		w, ok := findWorkload(*workloadName)
		if !ok {
			log.Fatalf("unknown -workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", "))
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, spansPath: *spansPath}
		run := runEndToEnd
		if *trace != 0 {
			run = runTraced
		}
		rep, err := run(w, cfg)
		if err != nil {
			log.Fatal(err)
		}
		printRun(rep)
	}
}

// printRun writes the full report and then the summary line, which must be
// the last line of standard output.
func printRun(rep *report) {
	full, err := json.Marshal(rep)
	if err != nil {
		log.Fatal(err)
	}
	last, err := json.Marshal(rep.summary())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n%s\n", full, last)
}
