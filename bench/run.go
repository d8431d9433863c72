package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/inference"
	"repro/internal/serve"
)

// Run shape shared by every workload (see README.md, "Run shape").
const (
	setupRepeats    = 3   // set-up is built at least this many times, and for at least
	setupMinSeconds = 3.0 // this long in total; setup_s is the median
	subWindows      = 6   // window metrics are the median of this many equal sub-windows' values
	minAgreement    = 0.95

	// genLagLimitMS invalidates an open-loop run whose generator ran late.
	// The lag is measured like the latency it guards, as the median of the
	// sub-windows' p99s, so one stall of the host moves one sub-window, not
	// the verdict. Idle, this host fires the loop's timers 0.5 ms late at the
	// median. Beside the window's personalizations, which keep both cores in
	// arithmetic for 25 ms at a time, the tail of the lag is the Go
	// scheduler's 10 ms preemption quantum: a sub-window's p99 measured 1 to
	// 9 ms, with one in fifteen at 13 to 50 ms after a stall of the host, and
	// their median 1.5 to 4.4 ms (CALIBRATION.md). Past three quanta the
	// generator was starved, not scheduled late, and the offered rate was not
	// the stated one.
	genLagLimitMS = 30.0
)

type runConfig struct {
	seed      int64
	seconds   float64
	spansPath string
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is one more sub-window, served before the window and discarded.
func (c runConfig) warmup() time.Duration { return c.window() / subWindows }

func newReport(w workload, cfg runConfig, traced bool) *report {
	return &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: traced,
		Host: readHost(), Correct: true, Metrics: map[string]metric{},
	}
}

func (r *report) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Notes = append(r.Notes, msg)
	log.Print(r.Workload, ": ", msg)
}

// fail records a gate that did not hold: the run's outputs are not correct.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.note(format, args...)
}

func (r *report) addPhase(name string, attempted, failed int) {
	r.Phases = append(r.Phases, phase{Name: name, Attempted: attempted, Succeeded: attempted - failed, Failed: failed})
	if failed > 0 {
		r.fail("phase %s: %d of %d operations failed", name, failed, attempted)
	}
	log.Printf("%s: phase %-8s attempted %d succeeded %d failed %d", r.Workload, name, attempted, attempted-failed, failed)
}

// finish refuses a report that carries a non-finite metric: a NaN is a
// measurement that did not happen, not a number to compare.
func (r *report) finish() (*report, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", r.Workload, name)
		}
	}
	return r, nil
}

// workloadTrace generates what one run of w serves: a request sequence per
// closed-loop client, or the open loop's whole schedule.
func workloadTrace(w workload, cfg runConfig) (*trace, error) {
	total := cfg.warmup() + cfg.window()
	ds := data.New(dataCfg)
	if !w.churn {
		return genTrace(w, ds, cfg.seed, runtime.GOMAXPROCS(0), closedSeqLen, w.shards > 0)
	}
	if need := int(total/churnWriteEvery) + 1; need > len(classSets())-w.tenants {
		return nil, fmt.Errorf("%s: a %.0fs window needs %d fresh class sets, only %d exist", w.name, cfg.seconds, need, len(classSets())-w.tenants)
	}
	return genTrace(w, ds, cfg.seed, 1, int(total.Seconds()*churnRate), false)
}

// runEndToEnd measures one workload with tracing off: set-up, prewarm,
// warm-up and the serving window. The window's speed is logged, not reported:
// throughput and latency are per-layer metrics of the traced run (README.md,
// "End-to-end metrics").
func runEndToEnd(w workload, cfg runConfig) (*report, error) {
	w.tierTenants = 0 // the budgeted tier server belongs to the traced run
	rep := newReport(w, cfg, false)
	tr, err := workloadTrace(w, cfg)
	if err != nil {
		return nil, err
	}
	rep.TraceHash = tr.hash

	dir, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, several times over: setup_s is the median. Three repeats of a
	// 40 ms set-up (transformer-s) measure the moment on a shared host; three
	// seconds of them measure the code.
	var sys *system
	var setupS []float64
	for spent := 0.0; len(setupS) < setupRepeats || spent < setupMinSeconds; spent += setupS[len(setupS)-1] {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		sys, err = setUp(w, filepath.Join(dir, fmt.Sprintf("setup%d", len(setupS))))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer sys.close()
	rep.Metrics["setup_s"] = timing(setupS, "s")
	rep.addPhase("setup", len(setupS), 0)

	pw, err := prewarm(sys, tr, rep)
	if err != nil {
		return nil, err
	}

	win := serveWindow(sys, tr, cfg, rep)
	tput, p50, p99 := win.speed(w.samples)
	log.Printf("%s: throughput %.0f samples/s, latency p50 %.3f ms p99 %.3f ms", w.name, tput.Value, p50.Value, p99.Value)
	rep.Metrics["allocs_per_req"] = count(win.allocsPerReq(), "count")
	rep.Metrics["user_acc"] = summarised(mean(pw.accPct), pw.accPct, "%")
	rep.Metrics["resident_bytes_per_tenant"] = count(pw.residentPerTenant, "B")

	checkGates(sys.w, sys.servers, rep)
	return rep.finish()
}

// serveWindow runs the workload's warm-up and serving window on sys, records
// their phases, and holds an open loop to its generator-lag limit.
func serveWindow(sys *system, tr *trace, cfg runConfig, rep *report) windowResult {
	runtime.GC()
	var win windowResult
	if sys.w.churn {
		win = churnWindow(sys, tr, cfg)
		// Latency is timed from the due time, so lag is already in it; what a
		// late generator spoils is the offered rate, and with it every number
		// the window reports.
		lag := timing(win.lagP99MS, "ms")
		rep.GenLag = &lag
		log.Printf("%s: generator lag p99 by sub-window %.3f ms", sys.w.name, win.lagP99MS)
		if lag.Value > genLagLimitMS {
			rep.fail("generator lag p99 %.3f ms exceeds %.1f ms: the offered rate was not %g req/s; repeat the run on a quieter host", lag.Value, genLagLimitMS, churnRate)
		}
	} else {
		win = closedWindow(sys, tr, cfg, runtime.GOMAXPROCS(0))
	}
	rep.addPhase("warmup", win.warmAttempted, win.warmFailed)
	rep.addPhase("window", win.attempted, win.failed)
	if sys.w.churn {
		rep.addPhase("writes", win.writes, win.writesFailed)
	}
	return win
}

// prewarmResult is what personalizing the tenants one at a time measured.
type prewarmResult struct {
	personalizeMS     []float64
	accPct            []float64
	sparsity          []float64
	residentPerTenant float64
	flushMS           float64
}

func (p *prewarmResult) add(d time.Duration, acc, sparsity float64) {
	p.personalizeMS = append(p.personalizeMS, ms(d))
	p.accPct = append(p.accPct, 100*acc)
	p.sparsity = append(p.sparsity, sparsity)
}

// personalizeReply is the part of the /personalize response the benchmark
// reads.
type personalizeReply struct {
	Cached   bool    `json:"cached"`
	Accuracy float64 `json:"accuracy"`
	Sparsity float64 `json:"sparsity"`
}

// personalizeHTTP personalizes one class set through an HTTP endpoint.
func personalizeHTTP(client *http.Client, url string, classes []int) (personalizeReply, error) {
	var reply personalizeReply
	body, _ := json.Marshal(map[string]any{"classes": classes})
	resp, err := client.Post(url+"/personalize", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("personalize {%s}: status %d", keyOf(classes), resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	return reply, err
}

// prewarm personalizes every tenant sequentially, each call timed, flushes
// the snapshot store and fills in the tenants' expected predictions.
func prewarm(sys *system, tr *trace, rep *report) (*prewarmResult, error) {
	pw := &prewarmResult{}
	failed := 0
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, t := range tr.tenants {
		t0 := time.Now()
		if sys.front != nil {
			reply, err := personalizeHTTP(client, sys.front.URL, t.classes)
			if err != nil || reply.Cached {
				failed++
				continue
			}
			pw.add(time.Since(t0), reply.Accuracy, reply.Sparsity)
			continue
		}
		p, cached, err := sys.servers[0].Personalize(t.classes)
		if err != nil || cached {
			failed++
			continue
		}
		pw.add(time.Since(t0), p.Accuracy, p.Report.AchievedSparsity)
	}
	rep.addPhase("prewarm", len(tr.tenants), failed)
	if failed > 0 {
		return nil, fmt.Errorf("%s: %d personalizations failed in prewarm", sys.w.name, failed)
	}

	// Everything durable before the clock starts: the window must not pay
	// for prewarm's write-behind, and the oracle reads the records.
	t0 := time.Now()
	for _, srv := range sys.servers {
		if _, err := srv.Flush(); err != nil {
			return nil, err
		}
	}
	pw.flushMS = ms(time.Since(t0))

	var resident int64
	var residents int
	for _, srv := range sys.servers {
		st := srv.Stats()
		resident += st.HotBytes + st.WarmBytes
		residents += st.CachedEngines + st.WarmEntries
	}
	pw.residentPerTenant = float64(resident) / float64(residents)

	for _, t := range tr.tenants {
		if err := sys.fillWant(t, sys.mainDir); err != nil {
			return nil, err
		}
	}
	return pw, nil
}

// fillWant computes the tenant's expected predictions outside any clock.
// float32 must equal the argmax of the masked-dense classifier the tenant
// was pruned to; int8 must equal an engine quantized independently from the
// same record (quantization is deterministic), and the server's own
// agreement measurement gates how far that may drift from float.
func (sys *system) fillWant(t *tenant, dir string) error {
	ref, err := sys.loadReference(dir, t.key)
	if err != nil {
		return err
	}
	predict := ref.Predict
	if sys.w.precision == inference.Int8 {
		eng, err := inference.NewWithOptions(ref, pruneOpts.BlockSize, pruneOpts.NM, inference.CompileOptions{Precision: inference.Int8})
		if err != nil {
			return err
		}
		predict = eng.Predict
	}
	t.want = t.want[:0]
	for _, x := range t.inputs {
		t.want = append(t.want, predict(x))
	}
	return nil
}

// sample is one finished request: when it finished (since the loop started),
// how long it took, and whether the answer was right.
type sample struct {
	done, lat time.Duration
	ok        bool
}

type windowResult struct {
	warm, window              time.Duration
	samples                   []sample
	mallocs                   uint64    // heap allocations over the window
	lagP99MS                  []float64 // open loop: the generator's lag p99 in each sub-window
	writes, writesFailed      int
	attempted, failed         int
	warmAttempted, warmFailed int
}

// memAt sleeps until each mark and reads the allocation counter there.
func memAt(start time.Time, marks ...time.Duration) []uint64 {
	out := make([]uint64, len(marks))
	var m runtime.MemStats
	for i, at := range marks {
		time.Sleep(time.Until(start.Add(at)))
		runtime.ReadMemStats(&m)
		out[i] = m.Mallocs
	}
	return out
}

// tally splits the samples into warm-up and window and tallies failures.
func (r *windowResult) tally() {
	for _, s := range r.samples {
		switch {
		case s.done < r.warm:
			r.warmAttempted++
			if !s.ok {
				r.warmFailed++
			}
		case s.done < r.warm+r.window:
			r.attempted++
			if !s.ok {
				r.failed++
			}
		}
	}
}

// speed reports the window as the median of its sub-windows' values: one
// scheduler hiccup moves one sub-window, not the result.
func (r *windowResult) speed(samplesPerReq int) (tput, p50, p99 metric) {
	sub := r.window / subWindows
	lat := make([][]float64, subWindows)
	good := make([]int, subWindows)
	for _, s := range r.samples {
		if s.done < r.warm || s.done >= r.warm+r.window {
			continue
		}
		k := min(int((s.done-r.warm)/sub), subWindows-1)
		lat[k] = append(lat[k], ms(s.lat))
		if s.ok {
			good[k] += samplesPerReq
		}
	}
	perSub := make([][]float64, 3)
	for k := range lat {
		perSub[0] = append(perSub[0], float64(good[k])/sub.Seconds())
		perSub[1] = append(perSub[1], percentile(lat[k], 0.50))
		perSub[2] = append(perSub[2], percentile(lat[k], 0.99))
	}
	tput, p50, p99 = timing(perSub[0], "samples/s"), timing(perSub[1], "ms"), timing(perSub[2], "ms")
	tput.Samples, p50.Samples, p99.Samples = r.attempted, r.attempted, r.attempted
	return tput, p50, p99
}

// allocsPerReq is the heap allocations over the window per request finished
// in it.
func (r *windowResult) allocsPerReq() float64 {
	return float64(r.mallocs) / float64(max(r.attempted, 1))
}

// closedWindow runs GOMAXPROCS clients, each sending its next request when
// the previous one returns.
func closedWindow(sys *system, tr *trace, cfg runConfig, clients int) windowResult {
	res := windowResult{warm: cfg.warmup(), window: cfg.window()}
	total := res.warm + res.window
	do := make([]func(reqRef) (time.Duration, bool), clients)
	for c := range do {
		if sys.front != nil {
			do[c] = httpPredictor(sys.front.URL, tr)
		} else {
			do[c] = serverPredictor(sys.servers[0], tr)
		}
	}
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup

	// Every tenant once per client before the clock starts, so every engine
	// owns its arenas: a tail tenant's first 16-sample pass allocates and
	// faults in megabytes (tens of ms), and whether the Zipf draw reached it
	// in warm-up or in the window is not what latency_p99_ms is for.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tr.tenants {
				lat, ok := do[c](reqRef{tenant: uint16(i)})
				perClient[c] = append(perClient[c], sample{lat: lat, ok: ok}) // done 0: tallied as warm-up
			}
		}()
	}
	wg.Wait()

	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := tr.seqs[c]
			for i := 0; ; i++ {
				lat, ok := do[c](seq[i%len(seq)])
				done := time.Since(start)
				perClient[c] = append(perClient[c], sample{done: done, lat: lat, ok: ok})
				if done >= total {
					return
				}
			}
		}()
	}
	m := memAt(start, res.warm, total)
	wg.Wait()
	res.mallocs = m[1] - m[0]
	for _, s := range perClient {
		res.samples = append(res.samples, s...)
	}
	res.tally()
	return res
}

// serverPredictor issues in-process Predict calls; only the call is timed,
// the comparison with the expected answer is not.
func serverPredictor(srv *serve.Server, tr *trace) func(reqRef) (time.Duration, bool) {
	return func(r reqRef) (time.Duration, bool) {
		t := tr.tenants[r.tenant]
		t0 := time.Now()
		preds, err := srv.Predict(t.classes, t.inputs[r.input])
		lat := time.Since(t0)
		return lat, err == nil && slices.Equal(preds, t.want[r.input])
	}
}

// httpPredictor posts pre-encoded JSON bodies over one keep-alive
// connection; the latency runs until the whole response has been read.
func httpPredictor(url string, tr *trace) func(reqRef) (time.Duration, bool) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	var buf bytes.Buffer
	var reply struct {
		Predictions []int `json:"predictions"`
	}
	return func(r reqRef) (time.Duration, bool) {
		t := tr.tenants[r.tenant]
		t0 := time.Now()
		resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(t.bodies[r.input]))
		if err != nil {
			return time.Since(t0), false
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK {
			return lat, false
		}
		reply.Predictions = reply.Predictions[:0]
		return lat, json.Unmarshal(buf.Bytes(), &reply) == nil && slices.Equal(reply.Predictions, t.want[r.input])
	}
}

// interArrival is the time between two requests of an open loop.
func interArrival(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// openLoop sends seq at a fixed rate whatever the answers' pace. Request k
// is due at start + k/rate and timed from that moment, so time a stall
// imposes on later requests counts; lagMS is how late each was actually
// sent. At most inFlight requests are outstanding.
func openLoop(start time.Time, seq []reqRef, rate float64, inFlight int, predict func(reqRef) (time.Duration, bool)) (samples []sample, lagMS []float64) {
	samples = make([]sample, len(seq))
	lagMS = make([]float64, len(seq))
	interval := interArrival(rate)
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for k, r := range seq {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		lagMS[k] = ms(time.Since(due))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ok := predict(r)
			now := time.Now()
			samples[k] = sample{done: now.Sub(start), lat: now.Sub(due), ok: ok}
			<-sem
		}()
	}
	wg.Wait()
	return samples, lagMS
}

// churnWindow is the open loop with writes beside the reads: predicts at
// churnRate and a fresh-tenant Personalize every churnWriteEvery.
func churnWindow(sys *system, tr *trace, cfg runConfig) windowResult {
	res := windowResult{warm: cfg.warmup(), window: cfg.window()}
	total := res.warm + res.window
	srv := sys.servers[0]
	var wg sync.WaitGroup
	start := time.Now()

	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, classes := range tr.fresh {
			due := start.Add(time.Duration(i) * churnWriteEvery)
			if due.Sub(start) >= total {
				return
			}
			time.Sleep(time.Until(due))
			_, cached, err := srv.Personalize(classes)
			res.writes++
			if err != nil || cached {
				res.writesFailed++
			}
		}
	}()
	var lagMS []float64
	go func() {
		defer wg.Done()
		res.samples, lagMS = openLoop(start, tr.seqs[0], churnRate, churnInFlight, serverPredictor(srv, tr))
	}()

	m := memAt(start, res.warm, total)
	wg.Wait()
	res.mallocs = m[1] - m[0]
	interval := interArrival(churnRate)
	perSub := make([][]float64, subWindows)
	for k, lag := range lagMS {
		if due := time.Duration(k) * interval; due >= res.warm && due < total {
			i := min(int((due-res.warm)/(res.window/subWindows)), subWindows-1)
			perSub[i] = append(perSub[i], lag)
		}
	}
	for _, lags := range perSub {
		res.lagP99MS = append(res.lagP99MS, percentile(lags, 0.99))
	}
	res.tally()
	return res
}

// checkGates holds the workload's servers to the correctness contracts that
// are not per-request: promotions verified, int8 agreement, and an idle tier
// cache on the all-hot workloads.
func checkGates(w workload, servers []*serve.Server, rep *report) {
	for i, srv := range servers {
		st := srv.Stats()
		if st.PromoteErrors != 0 {
			rep.fail("server %d: %d promotions failed verification", i, st.PromoteErrors)
		}
		if w.precision == inference.Int8 && st.Top1Agreement < minAgreement {
			rep.fail("server %d: int8 top-1 agreement %.4f below %.2f", i, st.Top1Agreement, minAgreement)
		}
		if !w.churn && st.Promotions+st.Demotions+st.WarmHits+st.RestoreHits+st.Evictions != 0 {
			rep.fail("server %d: tier cache moved on an all-hot workload (promotions %d demotions %d warm hits %d restores %d evictions %d)",
				i, st.Promotions, st.Demotions, st.WarmHits, st.RestoreHits, st.Evictions)
		}
	}
}
