// Package api is the HTTP surface of one CRISP serving process (a
// standalone server or a cluster shard). It is split out of crisp serve
// so the same handlers serve three callers: the binary, its httptest-based
// tests, and internal/cluster's in-process e2e shards.
//
// Endpoints:
//
//	POST /personalize {"classes":[3,17,42]}
//	POST /predict     {"classes":[3,17,42], "samples":16}
//	POST /predict     {"classes":[3,17,42], "inputs":[[...C*H*W floats...], ...]}
//	POST /snapshot    (flush every cached engine to the snapshot dir)
//	GET  /stats
//	GET  /metrics     (Prometheus text exposition of the /stats counters)
//	GET  /healthz     (shard liveness + load for the cluster router's prober)
//	POST /drain       (stop accepting new tenants, flush, return the handoff manifest)
//	POST /handoff     {"key":"1,3","fingerprint":...} (adopt a tenant from the shared store)
//
// The shard endpoints are always mounted — a standalone server is just a
// cluster of one — and /drain and /handoff require a snapshot store, since
// that store is the handoff channel between shards.
//
// # The predict body
//
// /predict is the hot endpoint, so its body is not handed to encoding/json:
// one hand-written scanner (codec.go) reads it, here and in the cluster
// router (Route), and the reply is appended to a recycled buffer. The wire
// format is still JSON and nothing about it changed for a client; what the
// scanner accepts is, case for case, what json.Unmarshal accepted into the
// struct the handler used to declare — FuzzPredictCodec holds it to that:
//
//	body    = ws ( object | "null" ) ws            nothing but white space after it
//	object  = "{" [ member { "," member } ] "}"
//	member  = name ":" value                       nesting at most 10000 deep
//	name    : matched to classes | samples | inputs (and qos, at the router and
//	          on /personalize) in any letter case, through \u escapes, and with
//	          U+017F for s; any other member is checked for syntax and ignored
//	classes = "[" int { "," int } "]" | null       integer literals only: 1.0 and 1e0
//	                                               are errors; sorted and
//	                                               deduplicated by the server
//	samples = int | null                           used when inputs has no row
//	inputs  = "[" row { "," row } "]" | null
//	row     = "[" number { "," number } "]" | null exactly C*H*W numbers, parsed by
//	                                               strconv.ParseFloat
//
// A null where a number is expected leaves the value as it was (zero, or what
// an earlier member of the same name put there: a repeated member decodes
// over the earlier one, it does not replace it). The inputs go from the body
// straight into the [B,C,H,W] tensor the engine reads; no [][]float64 exists.
//
// Two rules hold on both tiers, router and shard, because both read the body
// whole into a buffer before looking at it: a body longer than MaxBody
// (32 MiB) is answered 413, whether its length was announced or it arrived
// chunked — it is never cut short and reported as malformed; and a body with
// anything but white space after the request object is answered 400. A
// malformed body, a wrong type, an empty or out-of-range class set and a row
// of the wrong length are 400 as before.
//
// The cold endpoints (/personalize, /handoff, and every reply but /predict's)
// stay on encoding/json, behind http.MaxBytesReader: their bodies are a class
// list, or a key and two fingerprints, so at most MaxColdBody (16 KiB) is
// read and a longer body is answered 413 — by the router too, which holds
// /personalize to the same limit before it forwards.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"

	"repro/internal/data"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Config carries the process identity into the HTTP surface.
type Config struct {
	// ShardID names this process in /healthz and drain manifests; empty
	// means a standalone (unsharded) server.
	ShardID string
}

// Health is the /healthz body: liveness plus the load signals the cluster
// router folds into its per-shard metrics. Stats is the full counter
// snapshot — the router reads CachedEngines and QueueDepth from it, so the
// shard's existing telemetry feeds the ring without a second endpoint.
type Health struct {
	Status   string      `json:"status"` // "ok" or "draining"
	Shard    string      `json:"shard,omitempty"`
	Draining bool        `json:"draining"`
	Stats    serve.Stats `json:"stats"`
}

// DrainResponse is the /drain body: the manifest of tenants the drained
// shard flushed to the shared snapshot store, ready to be adopted.
type DrainResponse struct {
	Shard   string                `json:"shard,omitempty"`
	Tenants []serve.HandoffTenant `json:"tenants"`
}

// HandoffRequest is the /handoff body: adopt one tenant from the shared
// snapshot store, verifying it against the sending shard's fingerprints
// (zero values skip verification — an unverified adopt after a crash).
type HandoffRequest struct {
	Key            string `json:"key"`
	Fingerprint    uint64 `json:"fingerprint"`
	QuantSignature uint64 `json:"quant_signature"`
}

// NewMux wires the HTTP API around a server.
func NewMux(s *serve.Server, ds *data.Dataset, cfg Config) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /personalize", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Classes []int `json:"classes"`
			// QoS optionally (re)classes the tenant: "gold", "standard" or
			// "batch". Omitted: a new tenant starts Standard, an existing
			// tenant keeps its class.
			QoS *string `json:"qos"`
		}
		if !decodeCold(w, r, &req) {
			return
		}
		// Canonicalize separates caller errors (bad class set → 400) from
		// server-side personalization failures (→ 500).
		canon, _, err := s.Canonicalize(req.Classes)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var p *serve.Personalization
		var cached bool
		if req.QoS != nil {
			qos, err := serve.ParseQoSClass(*req.QoS)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			p, cached, err = s.PersonalizeQoS(canon, qos)
		} else {
			p, cached, err = s.Personalize(canon)
		}
		if err != nil {
			httpError(w, personalizeStatus(w, err), err)
			return
		}
		writeJSON(w, map[string]any{
			"key":               p.Key,
			"classes":           p.Classes,
			"cached":            cached,
			"qos":               p.QoS().String(),
			"accuracy":          p.Accuracy,
			"sparsity":          p.Report.AchievedSparsity,
			"flops_ratio":       p.Report.FLOPsRatio,
			"compressed_layers": p.Engine().CompressedLayers,
			"precision":         p.Engine().Precision().String(),
			"agreement":         p.Agreement,
			"fingerprint":       p.Engine().Fingerprint(),
		})
	})
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		c := predictCalls.Get().(*predictCall)
		c.serve(w, r, s, ds)
		c.release()
	})
	mux.HandleFunc("POST /snapshot", func(w http.ResponseWriter, r *http.Request) {
		// Explicit flush: write every cached engine that is not yet on disk.
		// Routine persistence does not need this (completions snapshot
		// write-behind); it is the admin hook before a planned restart.
		written, err := s.Flush()
		if errors.Is(err, serve.ErrNoSnapshotDir) {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		st := s.Stats()
		writeJSON(w, map[string]any{
			"written":         written,
			"snapshot_writes": st.SnapshotWrites,
			"snapshot_errors": st.SnapshotErrors,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: "ok", Shard: cfg.ShardID, Draining: s.Draining(), Stats: s.Stats()}
		if h.Draining {
			h.Status = "draining"
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		tenants, err := s.Drain()
		if errors.Is(err, serve.ErrNoSnapshotDir) {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, DrainResponse{Shard: cfg.ShardID, Tenants: tenants})
	})
	mux.HandleFunc("POST /handoff", func(w http.ResponseWriter, r *http.Request) {
		var req HandoffRequest
		if !decodeCold(w, r, &req) {
			return
		}
		if req.Key == "" {
			httpError(w, http.StatusBadRequest, errors.New("handoff request missing key"))
			return
		}
		if err := s.RestoreTenant(req.Key, req.Fingerprint, req.QuantSignature); err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, serve.ErrNoSnapshotDir) {
				code = http.StatusBadRequest
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, map[string]any{"key": req.Key, "restored": true})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteMetrics(w, s.Stats())
	})
	return mux
}

// predictStatus maps a predict-path error to its HTTP status: admission
// rejections are the caller's signal to back off (429), a draining shard
// tells the caller to retry once the router has re-placed the tenant (503
// + Retry-After), everything else is a server-side failure.
func predictStatus(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrOverQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrDraining):
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// personalizeStatus is predictStatus for the personalize path (no
// admission control there, but draining rejects the same way).
func personalizeStatus(w http.ResponseWriter, err error) int {
	if errors.Is(err, serve.ErrDraining) {
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// predictCall is the storage one /predict request decodes into and replies
// from: the body, the class set, the input tensor and the reply all live in
// buffers recycled through predictCalls, so a steady stream of predicts
// allocates nothing here. Server.Predict returns only after the engine has
// read the tensor (a batch leader copies its riders' rows into the engine's
// arena before it answers them), so nothing refers to a call's buffers once
// serve returns.
type predictCall struct {
	body  []byte
	req   predictRequest
	shape [4]int
	x     tensor.Tensor
	key   []byte
	out   []byte
}

var predictCalls = sync.Pool{New: func() any { return new(predictCall) }}

// release recycles c unless it grew for an outsized body (the tensor grows
// with the body, to four times its size).
func (c *predictCall) release() {
	if cap(c.body) <= MaxPooledBody {
		predictCalls.Put(c)
	}
}

func (c *predictCall) serve(w http.ResponseWriter, r *http.Request, s *serve.Server, ds *data.Dataset) {
	var err error
	if c.body, err = ReadBody(c.body, r, MaxBody); err != nil {
		httpError(w, BodyErrorStatus(err), fmt.Errorf("reading request: %w", err))
		return
	}
	vol := ds.Channels * ds.H * ds.W
	if err := c.req.decode(c.body, vol); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// The class set goes to the server canonical, so a cached tenant is
	// found by Predict's allocation-free lookup.
	canon, err := s.CanonicalizeInPlace(c.req.classes)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	c.key = serve.AppendKey(c.key[:0], canon)
	if c.req.rows == 0 {
		// A "samples" body is a few bytes whatever it asks for, so it may ask
		// for no more rows than an "inputs" body could carry: MaxBody spends
		// at least two bytes on every value of a row.
		if limit := MaxBody / (2 * vol); c.req.samples > limit {
			httpError(w, http.StatusBadRequest, fmt.Errorf("samples %d exceeds %d", c.req.samples, limit))
			return
		}
		preds, labels, acc, err := s.PredictSamples(canon, c.req.samples)
		if err != nil {
			httpError(w, predictStatus(w, err), err)
			return
		}
		writeJSON(w, map[string]any{
			"key": string(c.key), "predictions": preds, "labels": labels,
			"accuracy": acc, "samples": len(preds),
		})
		return
	}
	batch, err := c.req.batch(vol)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	c.shape = [4]int{c.req.rows, ds.Channels, ds.H, ds.W}
	c.x = tensor.Tensor{Shape: c.shape[:], Data: batch}
	preds, err := s.Predict(canon, &c.x)
	if err != nil {
		httpError(w, predictStatus(w, err), err)
		return
	}
	c.out = appendPredictReply(c.out[:0], c.key, preds)
	w.Header()["Content-Type"] = jsonContentType
	if _, err := w.Write(c.out); err != nil {
		log.Printf("api: writing response: %v", err)
	}
}

var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("api: encoding response: %v", err)
	}
}

// decodeCold decodes the small JSON body of a cold endpoint (/personalize,
// /handoff) into v, reading at most MaxColdBody of it. On failure it has
// answered — 413 for a longer body, 400 for a malformed one — and returns
// false.
func decodeCold(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxColdBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Errorf("decoding request: %w", err))
	return false
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
