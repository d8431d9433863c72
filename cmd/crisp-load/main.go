// Command crisp-load replays a synthetic multi-tenant traffic trace against
// an in-process CRISP serving fleet and emits a machine-readable SLO report
// (internal/sloreport). It is the load half of the CI SLO gate: CI runs it
// at a fixed seed and rate, then cmd/slocheck compares the report against
// the checked-in SLO_baseline.json.
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
// Usage:
//
//	crisp-load -seed 1 -rps 300 -duration 20s -tenants 24 -out report.json
//	crisp-load -seed 1 -rps 300 -duration 20s -tenants 24 -fifo -out fifo.json
//	slocheck -report report.json -baseline SLO_baseline.json
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
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sloreport"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crisp-load: ")
	var (
		seed       = flag.Int64("seed", 1, "replay seed: tenant class sets, QoS assignment and the Zipf draw are all derived from it")
		duration   = flag.Duration("duration", 20*time.Second, "measured replay window (after prewarm)")
		rps        = flag.Float64("rps", 300, "average offered request rate over the window")
		tenants    = flag.Int("tenants", 24, "distinct tenants (class sets) in the trace")
		classesPer = flag.Int("classes-per-tenant", 2, "classes per tenant class set")
		zipfS      = flag.Float64("zipf-s", 1.2, "Zipf skew of tenant popularity (> 1; larger = hotter head)")
		mix        = flag.String("mix", "gold=0.25,standard=0.5,batch=0.25", "QoS class mix over tenants, fractions summing to ~1")
		diurnal    = flag.Float64("diurnal", 0.5, "diurnal burst amplitude in [0,1): rate swings rps*(1±amplitude) over -diurnal-period")
		diurnalPer = flag.Duration("diurnal-period", 0, "diurnal cycle length (0: one full cycle over -duration)")
		conc       = flag.Int("conc", 64, "max in-flight requests (client-side concurrency bound)")
		samplesPer = flag.Int("samples-per-req", 1, "samples per predict request")
		fifo       = flag.Bool("fifo", false, "disable QoS load shaping (the FIFO baseline run)")
		precisions = flag.String("precisions", "float32,int8", "comma-separated engine precisions; one in-process server per entry, tenants spread across them")
		out        = flag.String("out", "-", "report destination path (-: stdout)")

		// Fleet shape: small enough to prewarm in seconds, loaded enough for
		// batching and quotas to matter.
		family     = flag.String("model", "resnet-s", "model family for the in-process fleet")
		width      = flag.Int("width", 1, "model width multiplier")
		numClasses = flag.Int("num-classes", 10, "classes in the universal model")
		pretrain   = flag.Int("pretrain-epochs", 1, "universal pre-training epochs")
		maxBatch   = flag.Int("max-batch", 16, "samples per coalesced engine call")
		linger     = flag.Duration("linger", 20*time.Millisecond, "batcher linger; set above the gold budget so deadline flushes are visible")
		maxQueue   = flag.Int("max-queue", 256, "per-tenant predict queue bound in samples")
	)
	flag.Parse()
	if *zipfS <= 1 {
		log.Fatalf("-zipf-s must be > 1, got %g", *zipfS)
	}
	if *diurnal < 0 || *diurnal >= 1 {
		log.Fatalf("-diurnal must be in [0,1), got %g", *diurnal)
	}
	if err := checkTenants(*tenants, *classesPer, *numClasses); err != nil {
		log.Fatal(err)
	}
	period := *diurnalPer
	if period <= 0 {
		period = *duration
	}

	fractions, err := parseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}
	precs, err := parsePrecisions(*precisions)
	if err != nil {
		log.Fatal(err)
	}

	// ---- Build the fleet: one pretrained base shared by every server. ----
	f := models.Family(*family)
	prune := pruner.Options{
		Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: 1, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	}
	if err := prune.Validate(); err != nil {
		log.Fatal(err)
	}
	ds := data.New(data.Config{
		Name: "load", NumClasses: *numClasses, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: *seed,
	})
	build := func() *nn.Classifier {
		return models.Build(f, rand.New(rand.NewSource(*seed+1)), *numClasses, *width)
	}
	log.Printf("pre-training universal %s (%d classes, %d epoch(s))...", f, *numClasses, *pretrain)
	base := build()
	pruner.Pretrain(base, ds, *pretrain, 8, *seed+2)

	servers := make([]*serve.Server, len(precs))
	for i, prec := range precs {
		s, err := serve.NewServer(build, base, ds, serve.Options{
			CacheSize: *tenants + 8,
			Prune:     prune,
			MaxBatch:  *maxBatch,
			Linger:    *linger,
			MaxQueue:  *maxQueue,
			Precision: prec,
			QoS:       serve.QoSOptions{Disabled: *fifo},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		servers[i] = s
	}

	// ---- Derive the tenant population. ----
	rng := rand.New(rand.NewSource(*seed + 3))
	ts := makeTenants(rng, ds, servers, *tenants, *classesPer, *samplesPer, fractions)

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
		log.Fatal(err)
	}
	log.Printf("prewarmed in %.1fs", time.Since(start).Seconds())

	// ---- Replay. ----
	schedule := makeSchedule(*duration, *rps, *diurnal, period)
	zipf := rand.NewZipf(rand.New(rand.NewSource(*seed+4)), *zipfS, 1, uint64(len(ts)-1))
	rec := newRecorder()
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
		log.Fatal(err)
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

func newRecorder() *recorder { return &recorder{} }

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
		switch strings.TrimSpace(part) {
		case "float32", "float", "fp32":
			out = append(out, inference.Float32)
		case "int8", "i8":
			out = append(out, inference.Int8)
		case "":
		default:
			return nil, fmt.Errorf("unknown precision %q (want float32 or int8)", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-precisions is empty")
	}
	return out, nil
}

func writeReport(path string, rep *sloreport.Report) error {
	enc := json.NewEncoder(os.Stdout)
	if path != "-" && path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
