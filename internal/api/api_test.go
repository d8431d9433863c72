package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

// newTestMux builds a small service (tiny model, one pruning iteration)
// behind the real HTTP handlers.
func newTestMux(t *testing.T) (*http.ServeMux, *serve.Server, *data.Dataset) {
	return newTestMuxSnapshot(t, "")
}

// newTestMuxSnapshot is newTestMux with a snapshot directory; the fixture
// is fully seeded, so two muxes on the same directory model a restart of
// the same deployment.
func newTestMuxSnapshot(t *testing.T, snapshotDir string) (*http.ServeMux, *serve.Server, *data.Dataset) {
	t.Helper()
	return newTestMuxOpts(t, func(o *serve.Options) { o.SnapshotDir = snapshotDir })
}

// newTestMuxOpts lets a test override the serving options (batching knobs,
// snapshot dir) before the server is built.
func newTestMuxOpts(t *testing.T, mutate func(*serve.Options)) (*http.ServeMux, *serve.Server, *data.Dataset) {
	t.Helper()
	ds := data.New(data.Config{
		Name: "serve-http-test", NumClasses: 6, Channels: 3, H: 8, W: 8,
		Noise: 0.25, Jitter: 1, Seed: 9,
	})
	build := func() *nn.Classifier {
		return models.Build(models.ResNet, rand.New(rand.NewSource(61)), ds.NumClasses, 1)
	}
	base := build()
	pruner.Pretrain(base, ds, 2, 8, 62)
	opts := serve.Options{
		Prune: pruner.Options{
			Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01,
		},
		TrainPerClass: 6,
		TestPerClass:  4,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := serve.NewServer(build, base, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return NewMux(s, ds, Config{ShardID: "test-shard"}), s, ds
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestEndpoints(t *testing.T) {
	mux, _, ds := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var pr struct {
		Key              string  `json:"key"`
		Cached           bool    `json:"cached"`
		Sparsity         float64 `json:"sparsity"`
		CompressedLayers int     `json:"compressed_layers"`
		Fingerprint      uint64  `json:"fingerprint"`
	}
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{3, 1, 3}}, &pr); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}
	if pr.Key != "1,3" || pr.Cached || pr.Sparsity <= 0 || pr.CompressedLayers == 0 {
		t.Fatalf("personalize response %+v", pr)
	}
	if pr.Fingerprint == 0 {
		t.Fatal("personalize response missing the engine fingerprint")
	}
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{1, 3}}, &pr); code != http.StatusOK || !pr.Cached {
		t.Fatalf("second personalize not served from cache (%d, %+v)", code, pr)
	}

	var pd struct {
		Predictions []int `json:"predictions"`
		Labels      []int `json:"labels"`
		Samples     int   `json:"samples"`
	}
	if code := postJSON(t, srv, "/predict", map[string]any{"classes": []int{1, 3}, "samples": 8}, &pd); code != http.StatusOK {
		t.Fatalf("/predict status %d", code)
	}
	if pd.Samples != 8 || len(pd.Predictions) != 8 || len(pd.Labels) != 8 {
		t.Fatalf("predict response %+v", pd)
	}

	// Caller-provided inputs.
	vol := ds.Channels * ds.H * ds.W
	inputs := [][]float64{make([]float64, vol), make([]float64, vol)}
	var pi struct {
		Predictions []int `json:"predictions"`
	}
	if code := postJSON(t, srv, "/predict", map[string]any{"classes": []int{1, 3}, "inputs": inputs}, &pi); code != http.StatusOK {
		t.Fatalf("/predict with inputs status %d", code)
	}
	if len(pi.Predictions) != 2 {
		t.Fatalf("predictions %v", pi.Predictions)
	}

	// Malformed requests.
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty class set: status %d", code)
	}
	if code := postJSON(t, srv, "/predict", map[string]any{"classes": []int{99}}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range class: status %d", code)
	}
	if code := postJSON(t, srv, "/predict", map[string]any{"classes": []int{1}, "inputs": [][]float64{{1, 2}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("short input row: status %d", code)
	}

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Personalizations != 1 || st.CacheHits == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestErrorPaths drives every handler's failure branches through raw HTTP
// bodies and asserts both the status code and the {"error": "..."} shape.
// TestPersonalizeQoSField: the optional "qos" field classes the tenant,
// the response echoes the resolved class, omitting the field keeps the
// current class, and a later request re-classes the cached tenant in place.
func TestPersonalizeQoSField(t *testing.T) {
	mux, _, _ := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var pr struct {
		Qos    string `json:"qos"`
		Cached bool   `json:"cached"`
	}
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{1, 3}, "qos": "gold"}, &pr); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}
	if pr.Qos != "gold" || pr.Cached {
		t.Fatalf("personalize response %+v, want fresh gold tenant", pr)
	}
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{1, 3}}, &pr); code != http.StatusOK {
		t.Fatalf("repeat /personalize status %d", code)
	}
	if !pr.Cached || pr.Qos != "gold" {
		t.Fatalf("omitted qos must keep the class: %+v", pr)
	}
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{1, 3}, "qos": "batch"}, &pr); code != http.StatusOK {
		t.Fatalf("re-class /personalize status %d", code)
	}
	if !pr.Cached || pr.Qos != "batch" {
		t.Fatalf("qos field must re-class the cached tenant: %+v", pr)
	}
}

func TestErrorPaths(t *testing.T) {
	mux, _, ds := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	// The most rows an "inputs" body can carry, and so the most samples.
	maxSamples := MaxBody / (2 * ds.Channels * ds.H * ds.W)

	cases := []struct {
		name, path, body string
		wantCode         int
	}{
		{"personalize malformed json", "/personalize", `{"classes":`, http.StatusBadRequest},
		{"personalize empty body", "/personalize", ``, http.StatusBadRequest},
		{"personalize empty class set", "/personalize", `{"classes":[]}`, http.StatusBadRequest},
		{"personalize unknown class", "/personalize", `{"classes":[99]}`, http.StatusBadRequest},
		{"personalize negative class", "/personalize", `{"classes":[-1]}`, http.StatusBadRequest},
		{"personalize unknown qos", "/personalize", `{"classes":[1,3],"qos":"platinum"}`, http.StatusBadRequest},
		{"predict malformed json", "/predict", `{"classes":[1],`, http.StatusBadRequest},
		{"predict empty class set", "/predict", `{"classes":[],"samples":4}`, http.StatusBadRequest},
		{"predict unknown class", "/predict", `{"classes":[42],"samples":4}`, http.StatusBadRequest},
		{"predict short input row", "/predict", `{"classes":[1],"inputs":[[1,2,3]]}`, http.StatusBadRequest},
		{"predict samples past the inputs bound", "/predict", fmt.Sprintf(`{"classes":[1],"samples":%d}`, maxSamples+1), http.StatusBadRequest},
		{"predict samples 1<<40", "/predict", fmt.Sprintf(`{"classes":[0,1],"samples":%d}`, int64(1)<<40), http.StatusBadRequest},
		{"snapshot without store", "/snapshot", ``, http.StatusBadRequest},
		{"drain without store", "/drain", ``, http.StatusBadRequest},
		{"handoff malformed json", "/handoff", `{"key":`, http.StatusBadRequest},
		{"handoff missing key", "/handoff", `{}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := srv.Client().Post(srv.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error content type %q", ct)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if e.Error == "" {
				t.Fatal("error body missing the error message")
			}
		})
	}
}

// TestSnapshotEndpointAndWarmRestart covers the admin flush path over HTTP
// and the restart story end to end: personalize, flush via POST /snapshot,
// then a second server on the same directory restores from disk without any
// pruning jobs.
func TestSnapshotEndpointAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	mux1, s1, _ := newTestMuxSnapshot(t, dir)
	srv1 := httptest.NewServer(mux1)
	defer srv1.Close()

	var pr struct {
		Key string `json:"key"`
	}
	if code := postJSON(t, srv1, "/personalize", map[string]any{"classes": []int{1, 3}}, &pr); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}
	var fl struct {
		Written        int    `json:"written"`
		SnapshotWrites uint64 `json:"snapshot_writes"`
		SnapshotErrors uint64 `json:"snapshot_errors"`
	}
	if code := postJSON(t, srv1, "/snapshot", map[string]any{}, &fl); code != http.StatusOK {
		t.Fatalf("/snapshot status %d", code)
	}
	if fl.SnapshotWrites != 1 || fl.SnapshotErrors != 0 {
		t.Fatalf("flush response %+v (stats %+v)", fl, s1.Stats())
	}

	// "Restart": a second server over the same directory.
	mux2, s2, _ := newTestMuxSnapshot(t, dir)
	if n, err := s2.Restore(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()

	if code := postJSON(t, srv2, "/personalize", map[string]any{"classes": []int{3, 1}}, &pr); code != http.StatusOK {
		t.Fatalf("post-restart /personalize status %d", code)
	}
	if pr.Key != "1,3" {
		t.Fatalf("post-restart key %q", pr.Key)
	}
	resp, err := srv2.Client().Get(srv2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("warm restart stats %+v (want 1 restore hit, 0 pruning jobs)", st)
	}
	if st.CacheHits != 1 {
		t.Fatalf("restored engine not served from cache: %+v", st)
	}
}

// TestMetricsEndpoint: /metrics renders every counter family in the
// Prometheus text format, with the batch-size histogram cumulative and
// consistent with the /stats counters.
func TestMetricsEndpoint(t *testing.T) {
	mux, s, _ := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if code := postJSON(t, srv, "/predict", map[string]any{"classes": []int{1, 3}, "samples": 4}, nil); code != http.StatusOK {
		t.Fatalf("/predict status %d", code)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	st := s.Stats()
	for _, want := range []string{
		fmt.Sprintf("crisp_serve_requests_total %d\n", st.Requests),
		fmt.Sprintf("crisp_serve_predict_batches_total %d\n", st.PredictBatches),
		fmt.Sprintf("crisp_serve_samples_predicted_total %d\n", st.SamplesPredicted),
		"crisp_serve_rejected_total 0\n",
		"crisp_serve_queue_depth 0\n",
		"crisp_serve_draining 0\n",
		"crisp_serve_handoff_restores_total 0\n",
		"crisp_serve_handoff_errors_total 0\n",
		fmt.Sprintf("crisp_serve_batch_size_bucket{le=\"+Inf\"} %d\n", st.PredictBatches),
		fmt.Sprintf("crisp_serve_batch_size_count %d\n", st.PredictBatches),
		fmt.Sprintf("crisp_serve_batch_size_sum %d\n", st.SamplesPredicted),
		"# TYPE crisp_serve_batch_size histogram\n",
		"crisp_serve_qos_enabled 1\n",
		"crisp_serve_flush_deadline_total 0\n",
		"crisp_serve_shed_total{class=\"gold\"} 0\n",
		"crisp_serve_shed_total{class=\"standard\"} 0\n",
		"crisp_serve_shed_total{class=\"batch\"} 0\n",
		"# TYPE crisp_serve_queue_wait_seconds histogram\n",
		fmt.Sprintf("crisp_serve_queue_wait_seconds_count{class=\"standard\"} %d\n", st.QueueWait["standard"].Count),
		"crisp_serve_queue_wait_seconds_bucket{class=\"gold\",le=\"+Inf\"} 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// Engines share no plans, so there is no shared-plan gauge to render.
	if strings.Contains(text, "crisp_serve_shared_plan") {
		t.Fatalf("metrics still render a shared-plan gauge:\n%s", text)
	}
}

// TestPredictOverload429: a full predict queue surfaces as HTTP 429 (the
// admission-control contract), not a 500.
func TestPredictOverload429(t *testing.T) {
	mux, s, ds := newTestMuxOpts(t, func(o *serve.Options) {
		o.MaxBatch = 100
		o.Linger = 30 * time.Second // only DrainBatches flushes
		o.MaxQueue = 1
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Build the engine first so the predicts below only queue.
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{0, 2}}, nil); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}
	input := make([]float64, ds.Channels*ds.H*ds.W)
	body := map[string]any{"classes": []int{0, 2}, "inputs": [][]float64{input}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code := postJSON(t, srv, "/predict", body, nil); code != http.StatusOK {
			t.Errorf("queued predict status %d", code)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first predict never queued")
		}
		time.Sleep(200 * time.Microsecond)
	}

	if code := postJSON(t, srv, "/predict", body, nil); code != http.StatusTooManyRequests {
		t.Fatalf("overflow predict status %d, want 429", code)
	}
	s.DrainBatches()
	wg.Wait()
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected %d, want 1", st.Rejected)
	}
}

// TestConcurrentHTTPClients sustains 8 concurrent /personalize + /predict
// clients over overlapping class sets and requires cache hits on the
// repeats — the serving-layer acceptance scenario (run under -race).
func TestConcurrentHTTPClients(t *testing.T) {
	mux, s, _ := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 1, 2}}
	const clients = 8
	const rounds = 4
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				classes := sets[(c+r)%len(sets)]
				if r%2 == 0 {
					var pr struct {
						Key string `json:"key"`
					}
					if code := postJSON(t, srv, "/personalize", map[string]any{"classes": classes}, &pr); code != http.StatusOK {
						t.Errorf("client %d: /personalize status %d", c, code)
						return
					}
					continue
				}
				var pd struct {
					Predictions []int `json:"predictions"`
				}
				if code := postJSON(t, srv, "/predict", map[string]any{"classes": classes, "samples": 6}, &pd); code != http.StatusOK {
					t.Errorf("client %d: /predict status %d", c, code)
					return
				}
				if len(pd.Predictions) != 6 {
					t.Errorf("client %d: %d predictions", c, len(pd.Predictions))
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	if st.Requests != clients*rounds {
		t.Fatalf("requests %d, want %d", st.Requests, clients*rounds)
	}
	if st.Personalizations != uint64(len(sets)) {
		t.Fatalf("personalizations %d, want one per distinct set (%d): %+v", st.Personalizations, len(sets), st)
	}
	if st.CacheHits == 0 {
		t.Fatalf("no cache hits across repeated class sets: %+v", st)
	}
	if fmt.Sprint(st.CacheHits+st.CacheMisses+st.DedupJoins) != fmt.Sprint(st.Requests) {
		t.Fatalf("request accounting inconsistent: %+v", st)
	}
}

// TestInt8ServingHTTP is the -precision int8 acceptance path over HTTP: the
// quantized server personalizes and predicts end to end, reports the
// precision and measured agreement per tenant on /personalize, and exposes
// the fleet-wide agreement telemetry on /stats and /metrics.
func TestInt8ServingHTTP(t *testing.T) {
	mux, _, _ := newTestMuxOpts(t, func(o *serve.Options) { o.Precision = inference.Int8 })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var pr struct {
		Key       string  `json:"key"`
		Precision string  `json:"precision"`
		Agreement float64 `json:"agreement"`
	}
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{1, 3}}, &pr); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}
	if pr.Precision != "int8" {
		t.Fatalf("personalize precision %q, want int8", pr.Precision)
	}
	if pr.Agreement <= 0 || pr.Agreement > 1 {
		t.Fatalf("personalize agreement %v outside (0, 1]", pr.Agreement)
	}

	var pd struct {
		Predictions []int `json:"predictions"`
	}
	if code := postJSON(t, srv, "/predict", map[string]any{"classes": []int{1, 3}, "samples": 8}, &pd); code != http.StatusOK {
		t.Fatalf("/predict status %d", code)
	}
	if len(pd.Predictions) != 8 {
		t.Fatalf("%d predictions, want 8", len(pd.Predictions))
	}

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Precision != "int8" || st.AgreementSamples == 0 {
		t.Fatalf("int8 stats over HTTP: %+v", st)
	}

	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"crisp_serve_precision{mode=\"int8\"} 1\n",
		fmt.Sprintf("crisp_serve_agreement_samples_total %d\n", st.AgreementSamples),
		fmt.Sprintf("crisp_serve_agreement_matches_total %d\n", st.AgreementMatches),
		"crisp_serve_top1_agreement ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestTieredMetricsExposed(t *testing.T) {
	// A one-engine hot tier under a huge budget: the second personalization
	// demotes the first to a warm record, and /metrics must show the tier
	// families moving.
	mux, _, _ := newTestMuxOpts(t, func(o *serve.Options) {
		o.CacheSize = 1
		o.MemoryBudgetBytes = 1 << 40
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, classes := range [][]int{{1, 3}, {0, 2}, {1, 3}} {
		if code := postJSON(t, srv, "/personalize", map[string]any{"classes": classes}, nil); code != http.StatusOK {
			t.Fatalf("/personalize %v status %d", classes, code)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("crisp_serve_memory_budget_bytes %d\n", int64(1<<40)),
		"crisp_serve_demotions_total 2\n",
		"crisp_serve_warm_hits_total 1\n",
		"crisp_serve_promotions_total 1\n",
		"crisp_serve_promote_errors_total 0\n",
		"# TYPE crisp_serve_promote_seconds_total counter\ncrisp_serve_promote_seconds_total ",
		"# TYPE crisp_serve_demote_seconds_total counter\ncrisp_serve_demote_seconds_total ",
		"crisp_serve_restore_seconds_total 0\n",
		"crisp_serve_warm_entries 1\n",
		"crisp_serve_cached_engines 1\n",
		"crisp_serve_hot_bytes ",
		"crisp_serve_warm_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The gauges must be live values, not zero placeholders.
	var st serve.Stats
	if code := func() int {
		r, err := srv.Client().Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode
	}(); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.HotBytes <= 0 || st.WarmBytes <= 0 {
		t.Fatalf("tier gauges not live: %+v", st)
	}
	if st.PromoteNanos == 0 || st.DemoteNanos == 0 || st.RestoreNanos != 0 {
		t.Fatalf("transition clocks: promote %d ns, demote %d ns, restore %d ns after one promotion, two demotions and no restore",
			st.PromoteNanos, st.DemoteNanos, st.RestoreNanos)
	}
}

// TestHealthz covers the prober contract: a healthy shard reports "ok" with
// its id and live stats, and flips to "draining" after BeginDrain.
func TestHealthz(t *testing.T) {
	mux, s, _ := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func() Health {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz status %d", resp.StatusCode)
		}
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := get()
	if h.Status != "ok" || h.Draining || h.Shard != "test-shard" {
		t.Fatalf("healthz %+v", h)
	}
	if h.Stats.Workers == 0 {
		t.Fatalf("healthz stats not live: %+v", h.Stats)
	}
	s.BeginDrain()
	if h := get(); h.Status != "draining" || !h.Draining {
		t.Fatalf("post-drain healthz %+v", h)
	}
}

// TestDrainAndHandoffHTTP walks the full shard-to-shard handoff over HTTP:
// personalize on shard A, drain A (manifest + 503s for new tenants), adopt
// the tenant on shard B via /handoff, and verify B serves it from the
// shared store by restore, not a re-prune, with the fingerprint intact.
func TestDrainAndHandoffHTTP(t *testing.T) {
	dir := t.TempDir()
	muxA, sA, _ := newTestMuxSnapshot(t, dir)
	srvA := httptest.NewServer(muxA)
	defer srvA.Close()

	var pr struct {
		Key         string `json:"key"`
		Fingerprint uint64 `json:"fingerprint"`
	}
	if code := postJSON(t, srvA, "/personalize", map[string]any{"classes": []int{1, 3}}, &pr); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}

	var dr DrainResponse
	if code := postJSON(t, srvA, "/drain", map[string]any{}, &dr); code != http.StatusOK {
		t.Fatalf("/drain status %d", code)
	}
	if dr.Shard != "test-shard" || len(dr.Tenants) != 1 || dr.Tenants[0].Key != "1,3" {
		t.Fatalf("drain manifest %+v", dr)
	}
	if dr.Tenants[0].Fingerprint != pr.Fingerprint {
		t.Fatalf("manifest fingerprint %016x, personalize reported %016x", dr.Tenants[0].Fingerprint, pr.Fingerprint)
	}

	// Draining shard: resident tenants still served, new tenants 503.
	if code := postJSON(t, srvA, "/predict", map[string]any{"classes": []int{1, 3}, "samples": 2}, nil); code != http.StatusOK {
		t.Fatalf("resident predict on draining shard: status %d", code)
	}
	resp, err := srvA.Client().Post(srvA.URL+"/personalize", "application/json", strings.NewReader(`{"classes":[0,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new tenant on draining shard: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Shard B (fresh server, same snapshot dir) adopts via /handoff.
	muxB, sB, _ := newTestMuxSnapshot(t, dir)
	srvB := httptest.NewServer(muxB)
	defer srvB.Close()
	ten := dr.Tenants[0]
	var hr struct {
		Restored bool `json:"restored"`
	}
	if code := postJSON(t, srvB, "/handoff", map[string]any{
		"key": ten.Key, "fingerprint": ten.Fingerprint, "quant_signature": ten.QuantSignature,
	}, &hr); code != http.StatusOK || !hr.Restored {
		t.Fatalf("/handoff status %d restored=%v (stats %+v)", code, hr.Restored, sB.Stats())
	}
	if code := postJSON(t, srvB, "/predict", map[string]any{"classes": []int{1, 3}, "samples": 4}, nil); code != http.StatusOK {
		t.Fatalf("post-handoff predict status %d", code)
	}
	stB := sB.Stats()
	if stB.HandoffRestores != 1 || stB.Personalizations != 0 {
		t.Fatalf("handoff stats %+v (want 1 handoff restore, 0 pruning jobs)", stB)
	}

	// A wrong fingerprint must be refused, not silently adopted.
	if code := postJSON(t, srvB, "/handoff", map[string]any{"key": "0,2", "fingerprint": 12345}, nil); code == http.StatusOK {
		t.Fatal("handoff of an unknown tenant with a bogus fingerprint succeeded")
	}
	_ = sA
}

// TestPredictBodyRules: both rules of the single read-into-buffer path, at
// the shard: a body over the limit is 413 whether or not its length was
// announced, and anything but white space after the request object is 400
// (the streaming decoder this replaces stopped reading at the brace).
func TestPredictBodyRules(t *testing.T) {
	mux, _, _ := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if code := postJSON(t, srv, "/personalize", map[string]any{"classes": []int{1, 3}}, nil); code != http.StatusOK {
		t.Fatalf("/personalize status %d", code)
	}
	huge := `{"classes":[1,3],"samples":1,"pad":"` + strings.Repeat("x", MaxBody) + `"}`
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"oversized, length announced", strings.NewReader(huge), http.StatusRequestEntityTooLarge},
		{"oversized, chunked", struct{ io.Reader }{strings.NewReader(huge)}, http.StatusRequestEntityTooLarge},
		{"trailing junk", strings.NewReader(`{"classes":[1,3],"samples":1} junk`), http.StatusBadRequest},
		{"second object", strings.NewReader(`{"classes":[1,3],"samples":1}{}`), http.StatusBadRequest},
		{"trailing white space", strings.NewReader("{\"classes\":[1,3],\"samples\":1} \r\n\t"), http.StatusOK},
		{"chunked", struct{ io.Reader }{strings.NewReader(`{"classes":[3,1],"samples":1}`)}, http.StatusOK},
	} {
		resp, err := srv.Client().Post(srv.URL+"/predict", "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want != http.StatusOK && (err != nil || e.Error == "") {
			t.Fatalf("%s: error body missing (%v)", tc.name, err)
		}
	}
}

// TestColdEndpointBodyRules: /personalize and /handoff read at most
// MaxColdBody of their body — a longer one is 413 whether or not its length
// was announced, and is not buffered to find that out.
func TestColdEndpointBodyRules(t *testing.T) {
	mux, s, _ := newTestMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	pad := strings.Repeat(" ", MaxColdBody)
	for _, tc := range []struct {
		name, path, body string
		chunked          bool
		want             int
	}{
		{"personalize", "/personalize", `{"classes":[1,3]}`, false, http.StatusOK},
		{"personalize, padded to the limit", "/personalize", `{"classes":[1,3]}` + pad[:MaxColdBody-17], true, http.StatusOK},
		{"oversized personalize, length announced", "/personalize", `{"classes":[1,3],"pad":"` + pad + `"}`, false, http.StatusRequestEntityTooLarge},
		{"oversized personalize, chunked", "/personalize", `{"classes":[1,3],"pad":"` + pad + `"}`, true, http.StatusRequestEntityTooLarge},
		{"oversized class list", "/personalize", `{"classes":[1` + strings.Repeat(",1", MaxColdBody/2) + `]}`, true, http.StatusRequestEntityTooLarge},
		{"malformed personalize", "/personalize", `{"classes":`, false, http.StatusBadRequest},
		{"oversized handoff, length announced", "/handoff", `{"key":"1,3","pad":"` + pad + `"}`, false, http.StatusRequestEntityTooLarge},
		{"oversized handoff, chunked", "/handoff", `{"key":"` + pad + `"}`, true, http.StatusRequestEntityTooLarge},
		{"malformed handoff", "/handoff", `{"key":`, false, http.StatusBadRequest},
		{"handoff without a snapshot store", "/handoff", `{"key":"1,3"}`, false, http.StatusBadRequest},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = struct{ io.Reader }{body}
		}
		resp, err := srv.Client().Post(srv.URL+tc.path, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want != http.StatusOK && (err != nil || e.Error == "") {
			t.Fatalf("%s: error body missing (%v)", tc.name, err)
		}
	}
	if st := s.Stats(); st.Personalizations != 1 || st.HandoffRestores != 0 {
		t.Fatalf("%d personalizations and %d handoffs ran, want only the well-formed tenant's", st.Personalizations, st.HandoffRestores)
	}
}

// predictBody is a /predict body of n caller-provided inputs for classes,
// row r filled from fill(r, i).
func predictBody(t *testing.T, ds *data.Dataset, classes []int, n int, fill func(r, i int) float64) []byte {
	t.Helper()
	inputs := make([][]float64, n)
	for r := range inputs {
		inputs[r] = make([]float64, ds.Channels*ds.H*ds.W)
		for i := range inputs[r] {
			inputs[r][i] = fill(r, i)
		}
	}
	body, err := json.Marshal(map[string]any{"classes": classes, "inputs": inputs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPredictHandlerAllocs locks the shard's share of the wire-tax cut into
// tier-1: one single-sample POST /predict through the mux, recorder and all,
// measures 9 allocations on a Float32 server and on an Int8 one (72 before
// the codec; 15 and 16 while every kernel fan-out allocated its closure and
// join counter). What is left is the recorder, the mux's routing,
// Server.Predict's result and the batcher — the decode, the input tensor,
// the canonical key, the reply and the engine pass beyond its answer cost
// none. The budgets are the measurement plus three.
func TestPredictHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		precision inference.Precision
		budget    float64
	}{{inference.Float32, 12}, {inference.Int8, 12}} {
		mux, s, ds := newTestMuxOpts(t, func(o *serve.Options) { o.Precision = c.precision })
		classes := []int{1, 3}
		if _, _, err := s.Personalize(classes); err != nil {
			t.Fatal(err)
		}
		body := predictBody(t, ds, classes, 1, func(_, i int) float64 { return float64(i%7) * 0.125 })
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/predict", rd)
		var code int
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(body)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			code = rec.Code
		})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", c.precision, code)
		}
		t.Logf("%s POST /predict: %.0f allocations per request", c.precision, allocs)
		if allocs > c.budget {
			t.Errorf("%s POST /predict: %.0f allocations per request, want <= %.0f", c.precision, allocs, c.budget)
		}
	}
}

// TestPredictBuffersNotSharedAcrossRequests (run under -race): handlers
// recycle their body buffer and input tensor the moment they return, while a
// batch leader is still fanning results out to other riders. Concurrent
// clients whose inputs differ must each get the answer a lone request gets,
// and the race detector must see no handler writing a buffer a leader still
// reads.
func TestPredictBuffersNotSharedAcrossRequests(t *testing.T) {
	mux, s, ds := newTestMuxOpts(t, func(o *serve.Options) {
		o.MaxBatch = 8
		o.Linger = 2 * time.Millisecond
	})
	classes := []int{0, 2, 4}
	if _, _, err := s.Personalize(classes); err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 8, 20
	bodies := make([][]byte, clients)
	want := make([]string, clients)
	for c := range bodies {
		split := ds.MakeSplit(fmt.Sprintf("pool-%d", c), classes, 1)
		vol := ds.Channels * ds.H * ds.W
		bodies[c] = predictBody(t, ds, classes, 1+c%3, func(r, i int) float64 { return split.X.Data[r*vol+i] })
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[c])))
		if rec.Code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", c, rec.Code, rec.Body)
		}
		want[c] = rec.Body.String()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[c])))
				if got := rec.Body.String(); rec.Code != http.StatusOK || got != want[c] {
					t.Errorf("client %d round %d: status %d reply %q, alone it was %q", c, i, rec.Code, got, want[c])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := s.Stats(); st.PredictBatches >= st.SamplesPredicted {
		t.Logf("no request shared a batch (batches %d, samples %d)", st.PredictBatches, st.SamplesPredicted)
	}
}
