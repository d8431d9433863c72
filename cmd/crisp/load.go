package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/big"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/inference"
	"repro/internal/serve"
	"repro/internal/sloreport"
	"repro/internal/tensor"
)

// runLoad replays a synthetic multi-tenant traffic trace against an
// in-process CRISP serving fleet and writes a machine-readable SLO report
// (internal/sloreport) to -out. With -baseline it is CI's SLO gate: once
// the report is written it checks it against the baseline (CI uses the
// checked-in SLO_baseline.json), prints each violated threshold, and fails
// if any SLO is broken.
//
// The trace is deterministic end to end — same seed, same schedule:
//
//   - Tenant popularity is Zipf-distributed (-zipf-s): a few tenants draw
//     most of the traffic, the tail is cold. Rank 0 is the hottest tenant.
//   - The arrival schedule is open-loop at -rps average, modulated by a
//     sinusoidal diurnal curve (-diurnal amplitude, -diurnal-period): the
//     run sweeps through a burst peak and a trough instead of a flat rate.
//   - Tenants are assigned QoS classes by the -mix fractions and spread
//     across one in-process server per -precisions entry (a mixed
//     float32/int8 fleet), so the replay exercises quota shedding, deadline
//     flushes and batching across classes and precisions at once.
//
// Every tenant is personalized (prewarmed) before the clock starts, so the
// measured window is pure serving — scheduling, batching, quotas — not
// pruning. -fifo disables the QoS layer (serve.QoSOptions.Disabled) to
// produce the baseline the QoS run is judged against: gold p99 must beat
// standard's under QoS while aggregate goodput does not regress vs FIFO.
//
// Refreshing the baseline after an intentional performance change:
//
//  1. Run the CI replay locally at the pinned seed and rate (see the slo
//     job in .github/workflows/ci.yml for the exact flags).
//  2. Read the new report's p50/p99/p999 and shed rates.
//  3. Edit SLO_baseline.json, keeping thresholds ~2x the freshly observed
//     values so runner jitter does not flake the gate, and commit it with
//     the change that moved the numbers.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("crisp load", flag.ExitOnError)
	var (
		seed       = fs.Int64("seed", 1, "replay seed: tenant class sets, QoS assignment and the Zipf draw are all derived from it")
		duration   = fs.Duration("duration", 20*time.Second, "measured replay window (after prewarm)")
		rps        = fs.Float64("rps", 300, "average offered request rate over the window")
		tenants    = fs.Int("tenants", 24, "distinct tenants (class sets) in the trace")
		classesPer = fs.Int("classes-per-tenant", 2, "classes per tenant class set")
		zipfS      = fs.Float64("zipf-s", 1.2, "Zipf skew of tenant popularity (> 1; larger = hotter head)")
		mix        = fs.String("mix", "gold=0.25,standard=0.5,batch=0.25", "QoS class mix over tenants, fractions summing to ~1")
		diurnal    = fs.Float64("diurnal", 0.5, "diurnal burst amplitude in [0,1): rate swings rps*(1±amplitude) over -diurnal-period")
		diurnalPer = fs.Duration("diurnal-period", 0, "diurnal cycle length (0: one full cycle over -duration)")
		conc       = fs.Int("conc", 64, "max in-flight requests (client-side concurrency bound)")
		samplesPer = fs.Int("samples-per-req", 1, "samples per predict request")
		fifo       = fs.Bool("fifo", false, "disable QoS load shaping (the FIFO baseline run)")
		precisions = fs.String("precisions", "float32,int8", "comma-separated engine precisions; one in-process server per entry, tenants spread across them")
		out        = fs.String("out", "-", "report destination path (-: stdout)")
		baseline   = fs.String("baseline", "", "SLO baseline to check the report against once it is written; a violation fails the run (empty: no check)")

		// Fleet shape: small enough to prewarm in seconds, loaded enough for
		// batching and quotas to matter.
		family     = fs.String("model", "resnet-s", "model family for the in-process fleet")
		width      = fs.Int("width", 1, "model width multiplier")
		numClasses = fs.Int("num-classes", 10, "classes in the universal model")
		pretrain   = fs.Int("pretrain-epochs", 1, "universal pre-training epochs")
		maxBatch   = fs.Int("max-batch", 16, "samples per coalesced engine call")
		linger     = fs.Duration("linger", 20*time.Millisecond, "batcher linger; set above the gold budget so deadline flushes are visible")
		maxQueue   = fs.Int("max-queue", 256, "per-tenant predict queue bound in samples")
	)
	fs.Parse(args)
	if *zipfS <= 1 {
		return fmt.Errorf("-zipf-s must be > 1, got %g", *zipfS)
	}
	if *conc < 1 {
		return fmt.Errorf("-conc must be >= 1, got %d", *conc)
	}
	if *diurnal < 0 || *diurnal >= 1 {
		return fmt.Errorf("-diurnal must be in [0,1), got %g", *diurnal)
	}
	if err := checkTenants(*tenants, *classesPer, *numClasses); err != nil {
		return err
	}
	period := *diurnalPer
	if period <= 0 {
		period = *duration
	}

	fractions, err := parseMix(*mix)
	if err != nil {
		return err
	}
	precs, err := parsePrecisions(*precisions)
	if err != nil {
		return err
	}
	f, err := parseFamily(*family)
	if err != nil {
		return err
	}
	var slo *sloreport.Baseline
	if *baseline != "" {
		if slo, err = readBaseline(*baseline); err != nil {
			return err
		}
	}

	// ---- Build the fleet: one pretrained base shared by every server. ----
	fl, err := newFleet("load", f, *numClasses, *width, *seed, *pretrain, 8, 0.7, 1)
	if err != nil {
		return err
	}
	servers := make([]*serve.Server, len(precs))
	for i, prec := range precs {
		s, err := serve.NewServer(fl.build, fl.base, fl.ds, serve.Options{
			CacheSize: *tenants + 8,
			Prune:     fl.prune,
			MaxBatch:  *maxBatch,
			Linger:    *linger,
			MaxQueue:  *maxQueue,
			Precision: prec,
			QoS:       serve.QoSOptions{Disabled: *fifo},
		})
		if err != nil {
			return err
		}
		defer s.Close()
		servers[i] = s
	}

	// ---- Derive the tenant population. ----
	rng := rand.New(rand.NewSource(*seed + 3))
	ts := makeTenants(rng, fl.ds, servers, *tenants, *classesPer, *samplesPer, fractions)

	log.Printf("prewarming %d tenants across %d server(s) (%s)...", len(ts), len(servers), *precisions)
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, len(ts))
	for _, tn := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := tn.srv.PersonalizeQoS(tn.classes, tn.qos); err != nil {
				errc <- fmt.Errorf("prewarm tenant %v: %w", tn.classes, err)
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return err
	}
	log.Printf("prewarmed in %.1fs", time.Since(start).Seconds())

	// ---- Replay. ----
	schedule := makeSchedule(*duration, *rps, *diurnal, period)
	zipf := rand.NewZipf(rand.New(rand.NewSource(*seed+4)), *zipfS, 1, uint64(len(ts)-1))
	rec := &recorder{}
	before := fleetStats(servers)

	log.Printf("replaying %d arrivals over %v (%.0f rps avg, diurnal ±%.0f%%)...",
		len(schedule), *duration, *rps, *diurnal*100)
	sem := make(chan struct{}, *conc)
	clock := time.Now()
	for _, at := range schedule {
		tn := ts[int(zipf.Uint64())]
		if d := at - time.Since(clock); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			x := tn.nextInput()
			t0 := time.Now()
			_, err := tn.srv.Predict(tn.classes, x)
			rec.record(tn.qos, x.Shape[0], time.Since(t0), err)
		}()
	}
	wg.Wait()
	elapsed := time.Since(clock)
	after := fleetStats(servers)

	report := rec.report(elapsed)
	report.Seed = *seed
	report.TargetRPS = *rps
	report.Duration = elapsed.Seconds()
	report.Tenants = len(ts)
	report.ZipfS = *zipfS
	report.QoS = !*fifo
	report.Precisions = *precisions
	report.FlushSize = after.FlushSize - before.FlushSize
	report.FlushLinger = after.FlushLinger - before.FlushLinger
	report.FlushDeadline = after.FlushDeadline - before.FlushDeadline
	report.FlushForced = after.FlushForced - before.FlushForced

	if err := writeReport(*out, report); err != nil {
		return err
	}
	log.Printf("done: %d requests (%.1f rps achieved), goodput %.1f rps, shed %d, overloaded %d",
		report.Aggregate.Requests, report.AchievedRPS, report.GoodputRPS,
		report.Aggregate.Shed, report.Aggregate.Overloaded)
	for _, name := range []string{"gold", "standard", "batch"} {
		if c := report.Classes[name]; c != nil && c.Requests > 0 {
			log.Printf("  %-8s p50 %6.2fms  p99 %6.2fms  p999 %6.2fms  shed %.1f%%  (%d reqs)",
				name, c.P50MS, c.P99MS, c.P999MS, c.ShedRate*100, c.Requests)
		}
	}
	if slo == nil {
		return nil
	}
	violations := sloreport.Check(report, slo)
	for _, v := range violations {
		log.Printf("FAIL: %s", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d SLO violation(s) against %s", len(violations), *baseline)
	}
	log.Printf("PASS: SLOs of %s hold", *baseline)
	return nil
}

// tenant is one replayed class set: its home server (precision), QoS class,
// and a small pool of precomputed input batches the replay cycles through —
// predict cost must not include per-request sample synthesis.
type tenant struct {
	classes []int
	qos     serve.QoSClass
	srv     *serve.Server
	inputs  []*tensor.Tensor
	next    int
	mu      sync.Mutex
}

func (t *tenant) nextInput() *tensor.Tensor {
	t.mu.Lock()
	x := t.inputs[t.next%len(t.inputs)]
	t.next++
	t.mu.Unlock()
	return x
}

// checkTenants rejects, before any pre-training, a population makeTenants
// cannot draw: a class set wider than the universal model panics in
// UserClasses, and more tenants than distinct class sets never finish.
func checkTenants(tenants, classesPer, numClasses int) error {
	if tenants < 1 || classesPer < 1 || classesPer > numClasses {
		return fmt.Errorf("want -tenants >= 1 and 1 <= -classes-per-tenant <= -num-classes, got %d, %d and %d", tenants, classesPer, numClasses)
	}
	if sets := new(big.Int).Binomial(int64(numClasses), int64(classesPer)); sets.Cmp(big.NewInt(int64(tenants))) < 0 {
		return fmt.Errorf("-tenants %d exceeds the %s distinct %d-class sets of %d classes", tenants, sets, classesPer, numClasses)
	}
	return nil
}

// makeTenants derives the deterministic tenant population: distinct class
// sets, QoS classes dealt by the mix fractions over a seeded shuffle (so
// popularity rank and QoS class are independent), servers round-robin.
func makeTenants(rng *rand.Rand, ds *data.Dataset, servers []*serve.Server, n, classesPer, samplesPer int, fractions map[serve.QoSClass]float64) []*tenant {
	seen := map[string]bool{}
	ts := make([]*tenant, 0, n)
	for salt := int64(0); len(ts) < n; salt++ {
		classes := ds.UserClasses(rng.Int63()+salt, classesPer)
		sort.Ints(classes)
		key := fmt.Sprint(classes)
		if seen[key] {
			continue
		}
		seen[key] = true
		ts = append(ts, &tenant{classes: classes})
	}
	// Deal QoS classes over a shuffled view so rank ⊥ class.
	perm := rng.Perm(n)
	gold := int(math.Round(fractions[serve.QoSGold] * float64(n)))
	batch := int(math.Round(fractions[serve.QoSBatch] * float64(n)))
	for i, p := range perm {
		switch {
		case i < gold:
			ts[p].qos = serve.QoSGold
		case i < gold+batch:
			ts[p].qos = serve.QoSBatch
		default:
			ts[p].qos = serve.QoSStandard
		}
	}
	for i, tn := range ts {
		tn.srv = servers[i%len(servers)]
		// 4 precomputed input batches per tenant, cycled round-robin.
		split := ds.MakeSplit("load-replay", tn.classes, 4*samplesPer)
		for j := 0; j < 4; j++ {
			idx := make([]int, 0, samplesPer)
			for k := 0; k < samplesPer; k++ {
				idx = append(idx, (j*samplesPer+k)%split.Len())
			}
			tn.inputs = append(tn.inputs, split.Subset(idx).X)
		}
	}
	return ts
}

// makeSchedule integrates the diurnally-modulated rate into a deterministic
// arrival-time list: the k-th arrival fires when the cumulative expected
// count crosses k. No randomness — the offered load is part of the trace.
func makeSchedule(duration time.Duration, rps, amp float64, period time.Duration) []time.Duration {
	var schedule []time.Duration
	const step = 100 * time.Microsecond
	acc := 0.0
	k := 0.0
	for t := time.Duration(0); t < duration; t += step {
		rate := rps * (1 + amp*math.Sin(2*math.Pi*t.Seconds()/period.Seconds()))
		acc += rate * step.Seconds()
		for acc >= k+1 {
			k++
			schedule = append(schedule, t)
		}
	}
	return schedule
}

// recorder accumulates per-class outcomes under one lock; the predict path
// it observes is milliseconds-scale, so contention here is negligible.
type recorder struct {
	mu  sync.Mutex
	cls [serve.NumQoSClasses]struct {
		reqs, samples, ok, shed, overloaded, errs int
		lat                                       []float64 // ms, OK only
	}
}

func (r *recorder) record(qos serve.QoSClass, samples int, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &r.cls[qos]
	c.reqs++
	c.samples += samples
	switch {
	case err == nil:
		c.ok++
		c.lat = append(c.lat, float64(d.Nanoseconds())/1e6)
	case errors.Is(err, serve.ErrOverQuota):
		c.shed++
	case errors.Is(err, serve.ErrOverloaded):
		c.overloaded++
	default:
		c.errs++
	}
}

func (r *recorder) report(elapsed time.Duration) *sloreport.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &sloreport.Report{Classes: map[string]*sloreport.ClassReport{}}
	var allLat []float64
	for qos := serve.QoSClass(0); qos < serve.NumQoSClasses; qos++ {
		c := r.cls[qos]
		cr := &sloreport.ClassReport{
			Requests: c.reqs, Samples: c.samples, OK: c.ok,
			Shed: c.shed, Overloaded: c.overloaded, Errors: c.errs,
		}
		cr.Summarize(c.lat)
		rep.Classes[qos.String()] = cr
		rep.Aggregate.Requests += c.reqs
		rep.Aggregate.Samples += c.samples
		rep.Aggregate.OK += c.ok
		rep.Aggregate.Shed += c.shed
		rep.Aggregate.Overloaded += c.overloaded
		rep.Aggregate.Errors += c.errs
		allLat = append(allLat, c.lat...)
	}
	rep.Aggregate.Summarize(allLat)
	if s := elapsed.Seconds(); s > 0 {
		rep.GoodputRPS = float64(rep.Aggregate.OK) / s
		rep.AchievedRPS = float64(rep.Aggregate.Requests) / s
	}
	return rep
}

// fleetStats sums the flush counters across the servers.
func fleetStats(servers []*serve.Server) (sum serve.Stats) {
	for _, s := range servers {
		st := s.Stats()
		sum.FlushSize += st.FlushSize
		sum.FlushLinger += st.FlushLinger
		sum.FlushDeadline += st.FlushDeadline
		sum.FlushForced += st.FlushForced
	}
	return sum
}

func parseMix(s string) (map[serve.QoSClass]float64, error) {
	m := map[serve.QoSClass]float64{}
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want class=fraction)", part)
		}
		qos, err := serve.ParseQoSClass(k)
		if err != nil {
			return nil, err
		}
		var f float64
		if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g", &f); err != nil || f < 0 {
			return nil, fmt.Errorf("bad -mix fraction %q", v)
		}
		m[qos] = f
		total += f
	}
	if total <= 0 || total > 1.001 {
		return nil, fmt.Errorf("-mix fractions sum to %g, want (0,1]", total)
	}
	return m, nil
}

func parsePrecisions(s string) ([]inference.Precision, error) {
	var out []inference.Precision
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		p, err := parsePrecision(part)
		if err != nil {
			return nil, fmt.Errorf("-precisions: %w", err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-precisions is empty")
	}
	return out, nil
}

// writeReport writes rep as indented JSON to path, or to stdout for "-".
// A file that fails to close is an error: its report may be truncated.
func writeReport(path string, rep *sloreport.Report) error {
	f := os.Stdout
	if path != "-" && path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	if f == os.Stdout {
		return err
	}
	return errors.Join(err, f.Close())
}

// readBaseline reads an SLO baseline; a field the schema does not know is
// an error, so a misspelled threshold cannot pass unchecked.
func readBaseline(path string) (*sloreport.Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var slo sloreport.Baseline
	if err := dec.Decode(&slo); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &slo, nil
}
