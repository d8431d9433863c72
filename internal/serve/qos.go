package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// ErrOverQuota reports a weighted-shedding drop: the tenant exhausted its
// class's token bucket while the server was under queue pressure, so the
// request was shed before admission-control had to 429 everyone. Like
// ErrOverloaded it maps to HTTP 429 in internal/api; unlike ErrOverloaded it
// singles out the over-quota tenant — compliant tenants keep being served.
var ErrOverQuota = errors.New("serve: over quota: tenant exceeded its class rate under load")

// QoSClass is a tenant's service class. The zero value is Standard, so
// tenants personalized without an explicit class get the middle tier.
type QoSClass int

const (
	// QoSStandard is the default interactive tier.
	QoSStandard QoSClass = iota
	// QoSGold is the premium interactive tier: the tightest latency budget
	// and the largest per-tenant quota.
	QoSGold
	// QoSBatch is the throughput tier: a loose latency budget (its riders
	// linger longest, forming the biggest batches) and the first to shed.
	QoSBatch
	// NumQoSClasses sizes per-class counter arrays.
	NumQoSClasses = 3
)

// String returns the wire name of the class ("standard", "gold", "batch").
func (c QoSClass) String() string {
	switch c {
	case QoSGold:
		return "gold"
	case QoSBatch:
		return "batch"
	default:
		return "standard"
	}
}

// ParseQoSClass parses a wire name; the empty string is Standard so callers
// can pass an optional field through unchecked.
func ParseQoSClass(s string) (QoSClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "standard":
		return QoSStandard, nil
	case "gold":
		return QoSGold, nil
	case "batch":
		return QoSBatch, nil
	}
	return QoSStandard, fmt.Errorf("serve: unknown QoS class %q (want gold, standard or batch)", s)
}

// QoSPolicy is one class's scheduling contract.
type QoSPolicy struct {
	// LatencyBudget is the end-to-end budget a batched predict of this class
	// carries: the batch leader flushes early once the oldest rider's budget,
	// minus the estimated engine time, nears exhaustion — so a rider never
	// spends its whole budget lingering for batch mates. <= 0 disables the
	// deadline (the plain arrival-relative linger still applies).
	LatencyBudget time.Duration
	// QuotaRPS is the per-tenant token refill rate, in samples per second;
	// this is where class weighting lives (gold refills fastest). A tenant
	// whose bucket is empty is shed with ErrOverQuota once the server's
	// global predict queue passes the shed watermark. <= 0 means unlimited.
	QuotaRPS float64
	// QuotaBurst is the bucket capacity in samples (how far a tenant may
	// briefly exceed QuotaRPS); <= 0 defaults to QuotaRPS/4, floored at 8.
	QuotaBurst float64
}

// withDefaults fills a policy's unset fields from the class default.
func (p QoSPolicy) withDefaults(def QoSPolicy) QoSPolicy {
	if p.LatencyBudget <= 0 {
		p.LatencyBudget = def.LatencyBudget
	}
	if p.QuotaRPS == 0 {
		p.QuotaRPS = def.QuotaRPS
	}
	if p.QuotaBurst <= 0 {
		p.QuotaBurst = p.QuotaRPS / 4
		if p.QuotaBurst < 8 {
			p.QuotaBurst = 8
		}
	}
	return p
}

// QoSOptions configures the load-shaping layer (Options.QoS).
type QoSOptions struct {
	// Disabled turns the whole layer off: no per-tenant quotas, no deadline
	// flushes, every tenant effectively Standard. The batcher still flushes
	// relative to the oldest rider's arrival (that is a correctness fix, not
	// a policy). This is the FIFO baseline crisp load compares against.
	Disabled bool
	// Gold, Standard and Batch override the per-class policies; zero fields
	// take the class defaults (DefaultQoSPolicy).
	Gold, Standard, Batch QoSPolicy
	// ShedWatermark is the fraction of GlobalQueue at which over-quota
	// tenants start being shed (outside (0,1]: 0.5). Below the watermark an
	// over-quota tenant is still admitted — quotas only bite under pressure.
	ShedWatermark float64
	// GlobalQueue is the server-wide queued-sample count the watermark is a
	// fraction of (<= 0: 4 × Options.MaxQueue). It is a soft pressure
	// signal, not an admission bound — per-tenant MaxQueue still hard-limits
	// each queue.
	GlobalQueue int
}

// DefaultQoSPolicy returns the built-in policy for a class: gold gets the
// tightest deadline and the fattest quota, batch the loosest of both.
func DefaultQoSPolicy(c QoSClass) QoSPolicy {
	switch c {
	case QoSGold:
		return QoSPolicy{LatencyBudget: 10 * time.Millisecond, QuotaRPS: 400, QuotaBurst: 100}
	case QoSBatch:
		return QoSPolicy{LatencyBudget: 250 * time.Millisecond, QuotaRPS: 100, QuotaBurst: 200}
	default:
		return QoSPolicy{LatencyBudget: 40 * time.Millisecond, QuotaRPS: 200, QuotaBurst: 50}
	}
}

// qosRuntime is the resolved, immutable scheduling policy a Server derives
// from QoSOptions at construction.
type qosRuntime struct {
	disabled bool
	policies [NumQoSClasses]QoSPolicy
	shedAt   int // queued-sample watermark above which over-quota tenants shed
}

func newQoSRuntime(o QoSOptions, maxQueue int) qosRuntime {
	rt := qosRuntime{disabled: o.Disabled}
	rt.policies[QoSGold] = o.Gold.withDefaults(DefaultQoSPolicy(QoSGold))
	rt.policies[QoSStandard] = o.Standard.withDefaults(DefaultQoSPolicy(QoSStandard))
	rt.policies[QoSBatch] = o.Batch.withDefaults(DefaultQoSPolicy(QoSBatch))
	global := o.GlobalQueue
	if global <= 0 {
		global = 4 * maxQueue
	}
	wm := o.ShedWatermark
	if wm <= 0 || wm > 1 {
		wm = 0.5
	}
	rt.shedAt = int(wm * float64(global))
	if rt.shedAt < 1 {
		rt.shedAt = 1
	}
	return rt
}

// policy returns the resolved policy for a class (Standard for anything out
// of range, so a corrupted class value degrades, never panics).
func (rt *qosRuntime) policy(c QoSClass) QoSPolicy {
	if c < 0 || int(c) >= NumQoSClasses {
		c = QoSStandard
	}
	return rt.policies[c]
}

// ParseQoSPolicy overlays comma-separated key=value settings onto a policy:
// "budget=5ms,rps=400,burst=100". Shared by the crisp serve and crisp load
// flag surfaces.
func ParseQoSPolicy(base QoSPolicy, s string) (QoSPolicy, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return base, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return base, fmt.Errorf("serve: bad QoS setting %q (want key=value)", part)
		}
		switch strings.TrimSpace(k) {
		case "budget":
			d, err := time.ParseDuration(strings.TrimSpace(v))
			if err != nil {
				return base, fmt.Errorf("serve: bad QoS budget %q: %w", v, err)
			}
			base.LatencyBudget = d
		case "rps":
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g", &f); err != nil {
				return base, fmt.Errorf("serve: bad QoS rps %q: %w", v, err)
			}
			base.QuotaRPS = f
		case "burst":
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g", &f); err != nil {
				return base, fmt.Errorf("serve: bad QoS burst %q: %w", v, err)
			}
			base.QuotaBurst = f
		default:
			return base, fmt.Errorf("serve: unknown QoS setting %q (want budget, rps or burst)", k)
		}
	}
	return base, nil
}

// tokenBucket is one tenant's request quota: refilled at the class
// QuotaRPS, capped at QuotaBurst, charged one token per predicted sample.
// Buckets start full. A failed take leaves the bucket untouched — an
// over-quota request that is admitted anyway (no pressure) rides for free
// rather than driving the balance negative, so recovery is immediate once
// the tenant slows down.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take refills by elapsed wall time and attempts to spend n tokens,
// reporting whether the bucket covered them. rps <= 0 always admits.
func (tb *tokenBucket) take(n, rps, burst float64, now time.Time) bool {
	if rps <= 0 {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.last.IsZero() {
		tb.tokens = burst
	} else {
		tb.tokens += now.Sub(tb.last).Seconds() * rps
		if tb.tokens > burst {
			tb.tokens = burst
		}
	}
	tb.last = now
	if tb.tokens < n {
		return false
	}
	tb.tokens -= n
	return true
}
