package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/format"
	"repro/internal/inference"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/saliency"
	"repro/internal/serve"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// The traced run, after serving the workload's window for the stack's speed
// under load, walks a ladder with one client: the same seeded request is
// issued at each rung the workload's requests pass — router URL and shard mux
// on a sharded workload, then Server.Predict, the tenant's engine, and the
// engine's kernels on plans compiled from the tenant's own masked weights —
// with a span recorded around each call. A rung's self time is its median
// minus the next rung's. Every span is recorded here, in the benchmark's own
// code: the program under test is not instrumented.

const (
	ladderRequests = 4  // distinct seeded requests the ladder cycles through
	ladderMinIters = 20 // never fewer ladder iterations than this
	allocPassCalls = 32 // back-to-back calls per rung when counting allocations
	microRepeats   = 5  // repeats of each pruner / checkpoint micro-timing
	overheadCalls  = 40 // top-rung calls with and without span recording
	minPromotions  = 40 // warm promotions the tier phase must time
	lagProbeRate   = 100.0
	sideReq        = 1 << 20 // request ids of side measurements, clear of the ladder's
)

// wireMetrics are the metrics of the layers only a sharded workload's
// requests pass. The in-process workloads call Server.Predict directly: there
// these layers take no time and do no work, and their metrics read 0 — the
// driver wants every per-layer metric from every workload.
var wireMetrics = map[string]string{
	"cluster.proxy_self_ms":             "ms",
	"cluster.proxy_allocs_per_req":      "count",
	"cluster.ring_lookup_ns":            "ns",
	"cluster.personalize_proxy_self_ms": "ms",
	"cluster.retries_per_req":           "count",
	"cluster.breaker_open_total":        "count",
	"api.handler_self_ms":               "ms",
	"api.handler_allocs_per_req":        "count",
	"api.body_bytes_per_req":            "B",
	"api.json_roundtrip_ms":             "ms",
}

// span is one timed call. Spans of one request share Req; Parent is the
// index of the rung above, the span that would have caused this one.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tc *tracer) begin(name, layer string, req, parent int) int {
	tc.spans = append(tc.spans, span{Name: name, Layer: layer, Req: req, Parent: parent, Start: time.Since(tc.t0).Nanoseconds()})
	return len(tc.spans) - 1
}

func (tc *tracer) end(id int) { tc.spans[id].End = time.Since(tc.t0).Nanoseconds() }

// perRequest sums the spans of one name within each request, in ms: a
// request that ran nine SpMM layers contributes one value, their total.
func (tc *tracer) perRequest(name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range tc.spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Req]; !seen {
			order = append(order, s.Req)
		}
		sums[s.Req] += float64(s.End-s.Start) / 1e6
	}
	out := make([]float64, len(order))
	for i, req := range order {
		out[i] = sums[req]
	}
	return out
}

func (tc *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tc.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// kernelLayer is one plan-backed layer of a tenant's model with the operands
// its kernels see at batch 16.
type kernelLayer struct {
	name  string
	plan  *format.Plan
	qplan *format.QuantPlan
	b     *tensor.Tensor // SpMM right-hand side [plan.Cols, n]
	flat  *tensor.Tensor // the layer input as [n, features], transposed on the way in
	// conv layers only: the input image batch and geometry im2col lowers.
	x    *tensor.Tensor
	geom tensor.ConvGeom

	out, flatT, cols *tensor.Tensor // recycled destinations
	scratch          format.QuantScratch
}

// encodePlan compiles one parameter the way the engine does: CRISP format
// for hybrid-masked weights, CSR for exempt or unmasked ones.
func encodePlan(p *nn.Param) *format.Plan {
	masked := tensor.Mul(p.MatrixView(), p.MaskMatrixView())
	if !p.BlockExempt && p.Mask != nil && p.Prunable {
		if enc, err := format.EncodeCRISP(masked, pruneOpts.BlockSize, pruneOpts.NM); err == nil {
			return enc.Compile()
		}
	}
	return format.EncodeCSR(masked).Compile()
}

// kernelLayers runs x through the masked-dense model layer by layer and
// captures, for every plan-backed layer, the operands its kernels would be
// handed. It returns the layers and the time compiling their plans took.
func kernelLayers(clf *nn.Classifier, x *tensor.Tensor) ([]*kernelLayer, time.Duration, error) {
	var layers []*kernelLayer
	var compile time.Duration
	var firstErr error
	add := func(name string, p *nn.Param, flat *tensor.Tensor) *kernelLayer {
		t0 := time.Now()
		plan := encodePlan(p)
		compile += time.Since(t0)
		q, err := plan.Quantize()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("quantizing %s: %w", name, err)
		}
		kl := &kernelLayer{name: name, plan: plan, qplan: q, flat: flat}
		kl.flatT = tensor.New(flat.Shape[1], flat.Shape[0])
		layers = append(layers, kl)
		return kl
	}
	var walk func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor
	walk = func(l nn.Layer, x *tensor.Tensor) *tensor.Tensor {
		switch v := l.(type) {
		case *nn.Sequential:
			for _, c := range v.Layers {
				x = walk(c, x)
			}
			return x
		case *nn.Residual:
			main, short := walk(v.Main, x), x
			if v.Shortcut != nil {
				short = walk(v.Shortcut, x)
			}
			return tensor.Add(main, short)
		case *nn.Conv2D:
			n := x.Shape[0]
			kl := add(v.Weight.Name, v.Weight, x.Reshape(n, -1))
			kl.x, kl.geom = x, v.Geom
			kl.geom.InH, kl.geom.InW = x.Shape[2], x.Shape[3]
			kl.b = tensor.Im2Col(x, kl.geom)
			kl.cols = tensor.New(kl.b.Shape...)
		case *nn.Linear:
			add(v.Weight.Name, v.Weight, x)
		case *nn.TokenLinear:
			add(v.Weight.Name, v.Weight, x.Reshape(x.Shape[0]*x.Shape[1], v.In))
		case *nn.PatchEmbed:
			add(v.Weight.Name, v.Weight, v.ExtractPatches(x))
		}
		return l.Forward(x, false)
	}
	walk(clf.Net, x)
	for _, kl := range layers {
		if kl.b == nil {
			kl.b = tensor.Transpose(kl.flat)
		}
		n := kl.b.Shape[1]
		kl.out = tensor.New(kl.plan.Rows, n)
		if kl.qplan != nil {
			kl.scratch = kl.qplan.Scratch(n)
		}
	}
	return layers, compile, firstErr
}

// ladderReq is one seeded request with everything each rung needs to issue
// it.
type ladderReq struct {
	t       *tenant
	input   int
	srv     *serve.Server
	mux     http.Handler
	engine  *inference.Engine
	ref     *nn.Classifier
	x16, x1 *tensor.Tensor
	layers  []*kernelLayer
}

func (r *ladderReq) body() []byte      { return r.t.bodies[r.input] }
func (r *ladderReq) x() *tensor.Tensor { return r.t.inputs[r.input] }
func (r *ladderReq) want() []int       { return r.t.want[r.input] }
func (r *ladderReq) classes() []int    { return r.t.classes }

// rungs issues one request at the upper four rungs. Each returns whether the
// answer was the expected one. client and url are set on a sharded workload.
type rungs struct {
	client *http.Client
	url    string
	buf    bytes.Buffer
	reply  struct {
		Predictions []int `json:"predictions"`
	}
}

func (g *rungs) parse(r *ladderReq, body []byte) bool {
	g.reply.Predictions = g.reply.Predictions[:0]
	return json.Unmarshal(body, &g.reply) == nil && slices.Equal(g.reply.Predictions, r.want())
}

func (g *rungs) router(r *ladderReq) bool {
	resp, err := g.client.Post(g.url+"/predict", "application/json", bytes.NewReader(r.body()))
	if err != nil {
		return false
	}
	g.buf.Reset()
	_, err = g.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && g.parse(r, g.buf.Bytes())
}

// handler calls the shard's mux directly: no sockets, no proxy.
func (g *rungs) handler(r *ladderReq, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func (g *rungs) predict(r *ladderReq) bool {
	preds, err := r.srv.Predict(r.classes(), r.x())
	return err == nil && slices.Equal(preds, r.want())
}

func (g *rungs) engine(r *ladderReq, x *tensor.Tensor) []int {
	return r.engine.PredictBatch([]*tensor.Tensor{x})
}

// mallocsOver counts heap allocations across n calls of fn.
func mallocsOver(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// timeMS times fn repeats times and returns the samples in ms.
func timeMS(repeats int, fn func()) []float64 {
	out := make([]float64, repeats)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = ms(time.Since(t0))
	}
	return out
}

// ladder is one traced run's state: the system, the spans, and the seeded
// requests with what each rung needs to issue them.
type ladder struct {
	w    workload
	cfg  runConfig
	sys  *system
	tr   *trace
	rep  *report
	tc   *tracer
	g    *rungs
	reqs []*ladderReq
	// one sample per ladder request, taken while building it
	planCompileMS, engineCompileMS, footprints []float64
	tierPromoteErrors                          float64 // the tier server's, closed before the run ends
}

// runTraced reports every per-layer metric of one workload. It first serves
// the workload as the untraced run does — prewarm, warm-up, window, no spans —
// for the speed of the whole stack under load, then walks the ladder, whose
// timings are one-client, one-at-a-time medians: they locate time.
func runTraced(w workload, cfg runConfig) (*report, error) {
	l := &ladder{w: w, cfg: cfg, rep: newReport(w, cfg, true)}
	var err error
	if l.tr, err = workloadTrace(w, cfg); err != nil {
		return nil, err
	}
	l.rep.TraceHash = l.tr.hash
	dir, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if l.sys, err = setUp(w, dir); err != nil {
		return nil, err
	}
	defer l.sys.close()

	before := sumStats(l.sys.servers)
	pw, err := prewarm(l.sys, l.tr, l.rep)
	if err != nil {
		return nil, err
	}
	resident := sumStats(l.sys.servers)
	M := l.rep.Metrics
	win := serveWindow(l.sys, l.tr, cfg, l.rep)
	M["throughput_sps"], M["latency_p50_ms"], M["latency_p99_ms"] = win.speed(w.samples)
	M["personalize_p50_ms"] = timing(pw.personalizeMS, "ms")

	l.tc = &tracer{t0: time.Now()}
	l.g = &rungs{}
	steps := []func() error{
		l.prepare, l.walk, l.kernelWork, l.tensorOps, l.overheadAndAllocs,
		func() error { return microTimings(l.sys, l.reqs[0], l.rep.Metrics) },
		l.tierAndCold, l.lagProbe,
	}
	if l.sys.front != nil {
		l.g.client, l.g.url = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, l.sys.front.URL
		defer l.g.client.CloseIdleConnections()
		steps = append(steps, l.personalizeProxy, l.wireFloor)
	} else {
		for name, unit := range wireMetrics {
			M[name] = count(0, unit)
		}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}

	// Server counters over the whole run; the all-hot workloads must leave
	// the tier counters at zero (checkGates).
	run := sumStats(l.sys.servers).minus(before)
	all := sumStats(l.sys.servers)
	M["serve.flush_ms"] = count(pw.flushMS, "ms")
	M["serve.rejected_total"] = count(all["rejected"], "count")
	M["serve.shed_total"] = count(all["shed_by_class.standard"]+all["shed_by_class.gold"]+all["shed_by_class.batch"], "count")
	M["serve.promote_errors_total"] = count(all["promote_errors"]+l.tierPromoteErrors, "count")
	M["serve.promotions_total"] = count(run["promotions"], "count")
	M["serve.demotions_total"] = count(run["demotions"], "count")
	M["serve.restore_hits_total"] = count(run["restore_hits"], "count")
	M["serve.snapshot_writes_total"] = count(run["snapshot_writes"], "count")
	M["serve.hot_bytes"] = count(resident["hot_bytes"], "B")
	M["serve.warm_bytes"] = count(resident["warm_bytes"], "B")
	M["serve.shared_plan_bytes"] = count(resident["shared_plan_bytes"], "B")
	M["serve.shared_plans"] = count(resident["shared_plans"], "count")
	M["format.registry_dedup_share"] = count(1-ratio(resident["shared_plans"], resident["shared_plan_refs"]), "share")
	M["pruner.achieved_sparsity"] = count(mean(pw.sparsity), "share")
	// float32 engines are the reference: the server reports agreement 1.
	M["quant.top1_agreement"] = count(all["top1_agreement"]/float64(len(l.sys.servers)), "share")

	checkGates(w, l.sys.servers, l.rep)
	if cfg.spansPath != "" {
		if err := l.tc.write(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	return l.rep.finish()
}

// prepare picks the ladder's requests — the first distinct (tenant, input)
// pairs of the seeded sequence — and gives each its engine, reference model
// and kernels.
func (l *ladder) prepare() error {
	sys, ds := l.sys, l.sys.ds
	seen := map[reqRef]bool{}
	for _, ref := range l.tr.seqs[0] {
		if seen[ref] || len(l.reqs) == ladderRequests {
			continue
		}
		seen[ref] = true
		t := l.tr.tenants[ref.tenant]
		shard, err := sys.shardOf(t.key)
		if err != nil {
			return err
		}
		r := &ladderReq{t: t, input: int(ref.input), srv: sys.servers[shard]}
		if sys.front != nil {
			r.mux = sys.muxes[shard]
		}
		p, _, err := r.srv.Personalize(t.classes)
		if err != nil {
			return err
		}
		r.engine = p.Engine()
		l.footprints = append(l.footprints, float64(r.engine.MemoryFootprint()))
		if r.ref, err = sys.loadReference(sys.mainDir, t.key); err != nil {
			return err
		}
		r.x16 = ds.MakeSplit("bench-b16/"+t.key, t.classes, 6).Subset(firstN(16)).X
		r.x1 = firstSample(r.x())
		var compile time.Duration
		if r.layers, compile, err = kernelLayers(r.ref, r.x16); err != nil {
			return err
		}
		l.planCompileMS = append(l.planCompileMS, ms(compile))
		l.engineCompileMS = append(l.engineCompileMS, timeMS(1, func() {
			_, err = inference.NewWithOptions(r.ref, pruneOpts.BlockSize, pruneOpts.NM, inference.CompileOptions{Precision: l.w.precision})
		})...)
		if err != nil {
			return err
		}
		l.reqs = append(l.reqs, r)
	}
	M := l.rep.Metrics
	M["format.plan_compile_ms"] = timing(l.planCompileMS, "ms")
	M["inference.compile_ms"] = timing(l.engineCompileMS, "ms")
	M["inference.footprint_bytes"] = count(mean(l.footprints), "B")
	return nil
}

// rung is the median of a span name's per-request times.
func (l *ladder) rung(name string) float64 { return median(l.tc.perRequest(name)) }

// self reports a rung's self time: its median minus the next rung's.
func (l *ladder) self(name, upper, lower string) {
	l.rep.Metrics[name] = summarised(l.rung(upper)-l.rung(lower), l.tc.perRequest(upper), "ms")
}

// personalizeProxy sends a cached personalization through the router and
// straight at the shard: the difference is what the proxy adds to the
// /personalize path.
func (l *ladder) personalizeProxy() error {
	r0 := l.reqs[0]
	body, _ := json.Marshal(map[string]any{"classes": r0.classes()})
	for i := 0; i < overheadCalls; i++ {
		id := l.tc.begin("cluster.personalize", "", sideReq+i, -1)
		_, err := personalizeHTTP(l.g.client, l.g.url, r0.classes())
		l.tc.end(id)
		if err != nil {
			return err
		}
		id = l.tc.begin("api.personalize", "", sideReq+i, id)
		rec := l.g.handler(r0, "/personalize", body)
		l.tc.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("cached personalize at the shard: status %d", rec.Code)
		}
	}
	l.self("cluster.personalize_proxy_self_ms", "cluster.personalize", "api.personalize")
	return nil
}

// walk is the ladder itself: every iteration issues one request at each rung
// and runs the engine's kernels on that request's tenant. Counts are read at
// the same boundaries as the spans.
func (l *ladder) walk() error {
	tc, g, M := l.tc, l.g, l.rep.Metrics
	sharded := l.sys.front != nil
	statsBefore := sumStats(l.sys.servers)
	var routerBefore map[string]float64
	if sharded {
		var err error
		if routerBefore, err = l.sys.routerCounters(g.client); err != nil {
			return err
		}
	}
	budget := time.Duration(l.cfg.seconds * 0.6 * float64(time.Second))
	iters, issued, failed := 0, 0, 0
	check := func(ok bool) {
		issued++
		if !ok {
			failed++
		}
	}
	for start := time.Now(); iters < ladderMinIters || time.Since(start) < budget; iters++ {
		r := l.reqs[iters%len(l.reqs)]
		above := -1
		if sharded {
			top := tc.begin("cluster.router", "", iters, -1)
			ok := g.router(r)
			tc.end(top)
			check(ok)

			above = tc.begin("api.handler", "", iters, top)
			rec := g.handler(r, "/predict", r.body())
			tc.end(above)
			check(rec.Code == http.StatusOK && g.parse(r, rec.Body.Bytes()))
		}

		sp := tc.begin("serve.predict", "", iters, above)
		ok := g.predict(r)
		tc.end(sp)
		check(ok)

		e := tc.begin("inference.engine", "", iters, sp)
		preds := g.engine(r, r.x())
		tc.end(e)
		check(slices.Equal(preds, r.want()))

		for _, b := range []struct {
			name string
			x    *tensor.Tensor
		}{{"inference.engine_b16", r.x16}, {"inference.engine_b1", r.x1}} {
			id := tc.begin(b.name, "", iters, e)
			g.engine(r, b.x)
			tc.end(id)
		}
		for _, kl := range r.layers {
			id := tc.begin("format.spmm_f32", kl.name, iters, e)
			kl.plan.MatMulInto(kl.b, kl.out)
			tc.end(id)
			id = tc.begin("format.spmm_int8", kl.name, iters, e)
			kl.qplan.MatMulInto(kl.b, kl.out, kl.scratch)
			tc.end(id)
			id = tc.begin("tensor.transpose", kl.name, iters, e)
			tensor.TransposeInto(kl.flat, kl.flatT)
			tc.end(id)
			if kl.x != nil {
				id = tc.begin("tensor.im2col", kl.name, iters, e)
				tensor.Im2ColInto(kl.x, kl.geom, kl.cols)
				tc.end(id)
			}
		}
	}
	d := sumStats(l.sys.servers).minus(statsBefore)
	l.rep.addPhase("ladder", issued, failed)

	if sharded {
		routerAfter, err := l.sys.routerCounters(g.client)
		if err != nil {
			return err
		}
		l.self("cluster.proxy_self_ms", "cluster.router", "api.handler")
		l.self("api.handler_self_ms", "api.handler", "serve.predict")
		proxied := routerAfter["proxied_total"] - routerBefore["proxied_total"]
		M["cluster.retries_per_req"] = count(ratio(routerAfter["retries_total"]-routerBefore["retries_total"], proxied), "count")
		M["cluster.breaker_open_total"] = count(routerAfter["breaker_trips_total"], "count")
		M["api.body_bytes_per_req"] = count(float64(len(l.reqs[0].body())+g.buf.Len()), "B")
	}
	l.self("serve.predict_self_ms", "serve.predict", "inference.engine")
	M["inference.engine_b16_ms"] = timing(tc.perRequest("inference.engine_b16"), "ms")
	M["inference.engine_b1_ms"] = timing(tc.perRequest("inference.engine_b1"), "ms")
	M["format.spmm_f32_b16_ms"] = timing(tc.perRequest("format.spmm_f32"), "ms")
	M["format.spmm_int8_b16_ms"] = timing(tc.perRequest("format.spmm_int8"), "ms")
	M["tensor.transpose_b16_ms"] = timing(tc.perRequest("tensor.transpose"), "ms")

	M["serve.queue_wait_mean_ms"] = count(ratio(d["queue_wait.standard.sum_ns"]/1e6, d["queue_wait.standard.count"]), "ms")
	M["serve.batch_size_mean"] = count(ratio(d["samples_predicted"], d["predict_batches"]), "count")
	flushes := d["flush_size"] + d["flush_linger"] + d["flush_deadline"] + d["flush_forced"]
	M["serve.flush_size_share"] = count(ratio(d["flush_size"], flushes), "share")
	M["serve.flush_linger_share"] = count(ratio(d["flush_linger"], flushes), "share")
	M["serve.flush_deadline_share"] = count(ratio(d["flush_deadline"], flushes), "share")
	return nil
}

// kernelWork reports what the SpMM calls were asked to do, computed from
// plan and tensor sizes — not measured traffic — and the share of an engine
// pass that is not SpMM at the workload's precision.
func (l *ladder) kernelWork() error {
	M := l.rep.Metrics
	spmm := "format.spmm_f32"
	if l.w.precision == inference.Int8 {
		spmm = "format.spmm_int8"
	}
	M["inference.nonkernel_share"] = count(1-l.rung(spmm)/l.rung("inference.engine_b16"), "share")
	var nnz, bytesMoved, planBytes, flops, calls float64
	for _, kl := range l.reqs[0].layers {
		nnz += float64(kl.plan.NNZ())
		planBytes += float64(kl.plan.SizeBytes())
		bytesMoved += float64(kl.plan.SizeBytes()) + 8*float64(len(kl.b.Data)+len(kl.out.Data))
		flops += 2 * float64(kl.plan.NNZ()) * float64(kl.b.Shape[1])
		calls++
	}
	M["format.spmm_nnz_per_call"] = count(nnz/calls, "count")
	M["format.spmm_bytes_per_call"] = count(bytesMoved/calls, "B")
	M["format.spmm_gflops"] = count(flops/(l.rung(spmm)*1e6), "GFLOP/s")
	M["format.plan_bytes"] = count(planBytes, "B")
	return nil
}

// tensorOps reports im2col and concat. A model with no conv layer never
// lowers an image: im2col takes no time there and reads 0.
func (l *ladder) tensorOps() error {
	M, ds, x16 := l.rep.Metrics, l.sys.ds, l.reqs[0].x16
	M["tensor.im2col_b16_ms"] = count(0, "ms")
	if im2col := l.tc.perRequest("tensor.im2col"); len(im2col) > 0 {
		M["tensor.im2col_b16_ms"] = timing(im2col, "ms")
	}
	singles := make([]*tensor.Tensor, 16)
	vol := ds.Channels * ds.H * ds.W
	for i := range singles {
		singles[i] = tensor.FromSlice(x16.Data[i*vol:(i+1)*vol], 1, ds.Channels, ds.H, ds.W)
	}
	batch := tensor.New(16, ds.Channels, ds.H, ds.W)
	M["tensor.concat_b16_ms"] = timing(timeMS(ladderMinIters, func() { tensor.ConcatInto(singles, batch) }), "ms")
	return nil
}

// overheadAndAllocs measures what recording spans costs the top rung, and
// the allocations per call at each rung; a layer's own are the difference
// to the rung below.
func (l *ladder) overheadAndAllocs() error {
	g, r0, M := l.g, l.reqs[0], l.rep.Metrics
	top := func() { g.predict(r0) }
	if l.sys.front != nil {
		top = func() { g.router(r0) }
	}
	bare := timeMS(overheadCalls, top)
	for i := 0; i < overheadCalls; i++ {
		id := l.tc.begin("bench.overhead", "", sideReq+i, -1)
		top()
		l.tc.end(id)
	}
	spanned := l.tc.perRequest("bench.overhead")
	M["bench.trace_overhead_pct"] = summarised(100*(median(spanned)-median(bare))/median(bare), spanned, "%")

	if l.sys.front != nil {
		aRouter := mallocsOver(allocPassCalls, func() { g.router(r0) })
		aHandler := mallocsOver(allocPassCalls, func() { g.handler(r0, "/predict", r0.body()) })
		aPredict := mallocsOver(allocPassCalls, func() { g.predict(r0) })
		M["cluster.proxy_allocs_per_req"] = count(aRouter-aHandler, "count")
		M["api.handler_allocs_per_req"] = count(aHandler-aPredict, "count")
	}
	M["inference.allocs_per_pass"] = count(mallocsOver(allocPassCalls, func() { g.engine(r0, r0.x16) }), "count")
	return nil
}

// wireFloor times the floor for this wire format — stdlib decode of the
// request body, decode and encode of the response, nothing else — and the
// ring lookup.
func (l *ladder) wireFloor() error {
	r0, M := l.reqs[0], l.rep.Metrics
	l.g.router(r0) // leaves this request's response in g.buf
	resp := slices.Clone(l.g.buf.Bytes())
	M["api.json_roundtrip_ms"] = timing(timeMS(ladderMinIters, func() {
		var in predictBody
		var out map[string]any
		json.Unmarshal(r0.body(), &in)
		json.Unmarshal(resp, &out)
		json.Marshal(out)
	}), "ms")
	const lookups = 10000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		l.sys.router.LookupShard(r0.t.key)
	}
	M["cluster.ring_lookup_ns"] = count(float64(time.Since(t0).Nanoseconds())/lookups, "ns")
	return nil
}

// tierAndCold times tier movement: promotions on a budgeted server — the
// workload's own on tenant_churn, a second one beside the all-hot servers —
// and cold restores on a fresh server opened over the flushed store (a
// restart).
func (l *ladder) tierAndCold() error {
	sys, M := l.sys, l.rep.Metrics
	// On tenant_churn: the 20 most popular tenants, more than the hot tier
	// holds and popular enough that the window left them resident.
	tier, tierSet := sys.servers[0], l.tr.tenants[:min(20, len(l.tr.tenants))]
	if !l.w.churn {
		var err error
		if tier, err = sys.tierServer(); err != nil {
			return err
		}
		defer tier.Close()
		tierSet = l.tr.tier
		failed := 0
		for _, t := range tierSet {
			if _, cached, err := tier.Personalize(t.classes); err != nil || cached {
				failed++
			}
		}
		l.rep.addPhase("tierwarm", len(tierSet), failed)
		if _, err := tier.Flush(); err != nil {
			return err
		}
		for _, t := range tierSet {
			if err := sys.fillWant(t, sys.tierDir); err != nil {
				return err
			}
		}
	}
	before := tier.Stats()
	tp := tierPhase(tier, tierSet, minPromotions)
	after := tier.Stats()
	l.rep.addPhase("tier", tp.touches, tp.failed)
	if len(tp.warmMS) < minPromotions {
		l.rep.fail("tier phase saw %d warm promotions, want at least %d", len(tp.warmMS), minPromotions)
	}
	if !l.w.churn {
		l.tierPromoteErrors = float64(after.PromoteErrors)
	}
	M["serve.promote_ms"] = timing(tp.warmMS, "ms")
	warm := after.WarmHits - before.WarmHits
	misses := warm + (after.RestoreHits - before.RestoreHits) + (after.Personalizations - before.Personalizations)
	M["serve.warm_hit_share"] = count(ratio(float64(warm), float64(misses)), "share")

	cold, err := serve.NewServer(sys.build, sys.base, sys.ds, sys.serverOptions(sys.mainDir))
	if err != nil {
		return err
	}
	defer cold.Close()
	var coldMS []float64
	failed := 0
	for _, t := range l.tr.tenants {
		t0 := time.Now()
		preds, err := cold.Predict(t.classes, firstSample(t.inputs[0]))
		coldMS = append(coldMS, ms(time.Since(t0)))
		if err != nil || !slices.Equal(preds, t.want[0][:1]) {
			failed++
		}
	}
	if st := cold.Stats(); int(st.RestoreHits) != len(l.tr.tenants) {
		failed++
		l.rep.note("cold server restored %d of %d tenants from disk (%d re-pruned)", st.RestoreHits, len(l.tr.tenants), st.Personalizations)
	}
	l.rep.addPhase("cold", len(l.tr.tenants), failed)
	M["serve.cold_restore_ms"] = timing(coldMS, "ms")
	return nil
}

// tierResult is the traced run's sequential tier phase: each touch classified
// by what the server's own counters say it did.
type tierResult struct {
	warmMS          []float64 // latencies of the touches that promoted a warm record
	touches, failed int
}

// tierPhase touches the tenants round-robin, one single-sample Predict at a
// time: a 16-sample first pass on a fresh engine is mostly the arena's page
// faults, which swing 6x with the heap's state and would bury the promotion.
// The heap is collected before every touch, outside its timer: a promotion
// allocates megabytes, so every dozen touches started a concurrent mark
// phase during which promotions ran 4x slower, and the median of that
// two-mode mix landed in either mode from run to run. A touch that re-prunes
// has lost the tenant and fails, as does a wrong answer. The phase ends after
// want promotions; a touch that found its tenant hot or cold times nothing,
// and three times want touches without them is a failed phase.
func tierPhase(srv *serve.Server, set []*tenant, want int) tierResult {
	var res tierResult
	for ; len(res.warmMS) < want && res.touches < 3*want; res.touches++ {
		t := set[res.touches%len(set)]
		runtime.GC()
		before := srv.Stats()
		t0 := time.Now()
		preds, err := srv.Predict(t.classes, firstSample(t.inputs[0]))
		d := ms(time.Since(t0))
		after := srv.Stats()
		switch {
		case err != nil || !slices.Equal(preds, t.want[0][:1]) || after.Personalizations > before.Personalizations:
			res.failed++
		case after.Promotions > before.Promotions:
			res.warmMS = append(res.warmMS, d)
		}
	}
	return res
}

// firstSample returns the first image of a batch as its own [1,C,H,W] tensor.
func firstSample(x *tensor.Tensor) *tensor.Tensor {
	if x.Shape[0] == 1 {
		return x
	}
	vol := len(x.Data) / x.Shape[0]
	return tensor.FromSlice(x.Data[:vol], 1, x.Shape[1], x.Shape[2], x.Shape[3])
}

// lagProbe measures how late this host fires a timer-driven open loop, over
// one sub-window's length.
func (l *ladder) lagProbe() error {
	rate := lagProbeRate
	if l.w.churn {
		rate = churnRate
	}
	n := int(rate * (l.cfg.window() / subWindows).Seconds())
	r0 := l.reqs[0]
	only := reqRef{tenant: uint16(slices.Index(l.tr.tenants, r0.t)), input: uint8(r0.input)}
	samples, lags := openLoop(time.Now(), slices.Repeat([]reqRef{only}, n), rate, churnInFlight, serverPredictor(r0.srv, l.tr))
	failed := 0
	for _, s := range samples {
		if !s.ok {
			failed++
		}
	}
	l.rep.addPhase("lagprobe", n, failed)
	l.rep.Metrics["bench.gen_lag_p99_ms"] = summarised(percentile(lags, 0.99), lags, "ms")
	return nil
}

// firstN returns the indices 0..n-1.
func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// microTimings times the write path's layers in isolation on one tenant's
// class set: the pruner and its parts, and the checkpoint codecs.
func microTimings(sys *system, r *ladderReq, M map[string]metric) error {
	key := r.t.key
	train := sys.ds.MakeSplit("serve-train/"+key, r.classes(), trainPerClass)
	fresh := func() *nn.Classifier {
		clone := sys.build()
		sys.base.CloneWeightsTo(clone)
		return clone
	}
	opts := pruneOpts.WithDefaults()

	var pruneMS, finetuneMS, saliencyMS, nmMS, rankMS []float64
	for i := 0; i < microRepeats; i++ {
		clone := fresh()
		pruneMS = append(pruneMS, timeMS(1, func() { pruner.NewCRISP(pruneOpts).Prune(clone, train) })...)

		clone = fresh()
		opt := nn.NewSGD(opts.LR, opts.Momentum, opts.WeightDecay)
		finetuneMS = append(finetuneMS, timeMS(1, func() {
			pruner.Finetune(clone, train, 1, opts.BatchSize, opt, rand.New(rand.NewSource(opts.Seed)))
		})...)
		var scores saliency.Scores
		saliencyMS = append(saliencyMS, timeMS(1, func() { scores = saliency.Compute(clone, train, opts.BatchSize, opts.Saliency) })...)

		// The mask mathematics on the model's largest prunable matrix.
		params := clone.PrunableParams()
		big := slices.MaxFunc(params, func(a, b *nn.Param) int { return a.W.Len() - b.W.Len() })
		view := scores.MatrixView(big)
		mask := big.MaskMatrixView()
		nmMS = append(nmMS, timeMS(1, func() { sparsity.ApplyNM(mask, view, opts.NM) })...)
		grid := sparsity.NewBlockGrid(big.Rows, big.Cols, opts.BlockSize)
		rankMS = append(rankMS, timeMS(1, func() { sparsity.RankColumns(sparsity.BlockScores(view, grid)) })...)
	}
	M["pruner.prune_ms"] = timing(pruneMS, "ms")
	M["nn.finetune_epoch_ms"] = timing(finetuneMS, "ms")
	M["saliency.compute_ms"] = timing(saliencyMS, "ms")
	M["sparsity.apply_nm_ms"] = timing(nmMS, "ms")
	M["sparsity.rank_columns_ms"] = timing(rankMS, "ms")

	var delta []byte
	var err error
	encodeMS := timeMS(microRepeats, func() { delta, err = checkpoint.EncodeModelDelta(sys.base, r.ref) })
	if err != nil {
		return err
	}
	M["checkpoint.delta_encode_ms"] = timing(encodeMS, "ms")
	M["checkpoint.delta_bytes"] = count(float64(len(delta)), "B")
	dst := sys.build()
	applyMS := timeMS(microRepeats, func() { err = checkpoint.ApplyModelDelta(delta, sys.base, dst) })
	if err != nil {
		return err
	}
	M["checkpoint.delta_apply_ms"] = timing(applyMS, "ms")

	// Save and load go through a real file under the run's directory, fsync
	// excluded: the codec is the layer, the disk is the host.
	path := filepath.Join(sys.mainDir, "bench-record.ckpt")
	rec := checkpoint.PersonalizationRecord{Key: key, Classes: r.classes()}
	saveMS := timeMS(microRepeats, func() {
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return
		}
		if err = checkpoint.SavePersonalization(f, rec, r.ref); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	})
	if err != nil {
		return err
	}
	M["checkpoint.save_ms"] = timing(saveMS, "ms")
	loadMS := timeMS(microRepeats, func() {
		var f *os.File
		if f, err = os.Open(path); err != nil {
			return
		}
		_, err = checkpoint.LoadPersonalization(f, dst)
		f.Close()
	})
	if err != nil {
		return err
	}
	M["checkpoint.load_ms"] = timing(loadMS, "ms")
	return os.Remove(path)
}

// counters is a set of serve.Stats snapshots flattened to dotted JSON names
// ("flush_size", "queue_wait.standard.sum_ns") and summed over servers: the
// names are the ones /stats serves.
type counters map[string]float64

func flatten(prefix string, v any, out counters) {
	switch t := v.(type) {
	case map[string]any:
		for k, x := range t {
			flatten(prefix+k+".", x, out)
		}
	case []any:
		for i, x := range t {
			flatten(prefix+strconv.Itoa(i)+".", x, out)
		}
	case float64:
		out[strings.TrimSuffix(prefix, ".")] += t
	}
}

func sumStats(servers []*serve.Server) counters {
	sum := counters{}
	for _, srv := range servers {
		var v any
		b, _ := json.Marshal(srv.Stats())
		json.Unmarshal(b, &v)
		flatten("", v, sum)
	}
	return sum
}

// minus returns the change since an earlier snapshot.
func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

var routerCounter = regexp.MustCompile(`(?m)^crisp_router_(\w+?)(?:\{[^}]*\})? (\d+)$`)

// routerCounters scrapes the router's own /metrics: the counts come from the
// layer that did the work, at the same boundaries as the spans.
func (sys *system) routerCounters(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(sys.front.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range routerCounter.FindAllStringSubmatch(string(body), -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		out[m[1]] += v // labelled series (proxied_total{path=}) sum
	}
	return out, nil
}
