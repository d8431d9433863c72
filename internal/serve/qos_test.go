package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// ---- Arrival-relative linger (the PR's batcher regression fix). ----

// TestFlushWaitRelativeToArrival unit-tests the leader's wait computation:
// the linger window closes at oldestArrival+linger regardless of when the
// leader's goroutine gets scheduled, and a deadline tighter than the linger
// window wins (minus the engine-latency guard).
func TestFlushWaitRelativeToArrival(t *testing.T) {
	b, _ := stubBatcher(100, 10*time.Millisecond, 100)
	now := time.Now()
	tests := []struct {
		name     string
		arrival  time.Time
		deadline time.Time
		ewmaNS   int64
		wantMax  time.Duration // wait must be <= this
		wantMin  time.Duration // wait must be > this
		wantCut  bool
	}{
		{"fresh rider waits the full linger", now, time.Time{}, 0, 10 * time.Millisecond, 9 * time.Millisecond, false},
		{"stale rider flushes immediately", now.Add(-time.Second), time.Time{}, 0, 0, -2 * time.Second, false},
		{"half-spent linger window", now.Add(-5 * time.Millisecond), time.Time{}, 0, 5 * time.Millisecond, 4 * time.Millisecond, false},
		{"deadline tighter than linger wins", now, now.Add(3 * time.Millisecond), 0, 3 * time.Millisecond, 2 * time.Millisecond, true},
		{"deadline looser than linger loses", now, now.Add(time.Minute), 0, 10 * time.Millisecond, 9 * time.Millisecond, false},
		{"engine guard shortens the deadline", now, now.Add(8 * time.Millisecond), (4 * time.Millisecond).Nanoseconds(), 4 * time.Millisecond, 3 * time.Millisecond, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b.ewmaNS.Store(tc.ewmaNS)
			wait, cut := b.flushWait(tc.arrival, tc.deadline, now)
			if wait > tc.wantMax || wait <= tc.wantMin {
				t.Fatalf("wait %v, want in (%v, %v]", wait, tc.wantMin, tc.wantMax)
			}
			if cut != tc.wantCut {
				t.Fatalf("deadlineCut %v, want %v", cut, tc.wantCut)
			}
		})
	}
}

// TestBatcherLingerRelativeToArrival is the end-to-end regression for the
// pathological case: a leader whose goroutine was descheduled between
// enqueueing and leading must NOT tax the queue with a fresh full linger —
// the window is anchored at the oldest rider's arrival. Simulated by
// planting a rider whose arrival is long past and driving lead() directly.
func TestBatcherLingerRelativeToArrival(t *testing.T) {
	const linger = 250 * time.Millisecond
	b, c := stubBatcher(100, linger, 100)
	req := &predictReq{
		x: sample(3), rows: 1, done: make(chan struct{}, 1),
		arrival: time.Now().Add(-time.Second), // waited far past the linger already
		class:   QoSStandard,
	}
	b.mu.Lock()
	b.head, b.tail = req, req
	b.queued = req.rows
	b.counters.queued.Add(int64(req.rows))
	b.mu.Unlock()

	start := time.Now()
	b.lead()
	<-req.done
	if req.err != nil {
		t.Fatal(req.err)
	}
	// Before the fix lead() lingered a full window from when it ran; the
	// fixed leader sees the window already closed and flushes immediately.
	if waited := time.Since(start); waited > linger/2 {
		t.Fatalf("stale rider waited another %v; linger must be relative to arrival, not leader wake-up", waited)
	}
	if got := c.flushLinger.Load(); got != 1 {
		t.Fatalf("flushLinger %d, want 1", got)
	}
	if len(req.preds) != 1 || req.preds[0] != 3 {
		t.Fatalf("preds %v, want [3]", req.preds)
	}
}

// TestBatcherDeadlineFlush: a rider whose latency budget closes before the
// linger window flushes at the deadline and is counted as a deadline flush.
func TestBatcherDeadlineFlush(t *testing.T) {
	b, c := stubBatcher(100, time.Minute, 100)
	start := time.Now()
	preds, err := b.submit(sample(9), QoSGold, start.Add(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != 9 {
		t.Fatalf("preds %v, want [9]", preds)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("deadline rider waited %v against a 1m linger", waited)
	}
	if got := c.flushDeadline.Load(); got != 1 {
		t.Fatalf("flushDeadline %d, want 1 (size=%d linger=%d forced=%d)",
			got, c.flushSize.Load(), c.flushLinger.Load(), c.flushForced.Load())
	}
}

// TestBatcherQueueWaitObserved: every flushed rider lands one observation in
// its class's queue-wait histogram, with sum and count coherent.
func TestBatcherQueueWaitObserved(t *testing.T) {
	b, c := stubBatcher(2, time.Minute, 100)
	var wg sync.WaitGroup
	for i, class := range []QoSClass{QoSGold, QoSBatch} {
		wg.Add(1)
		go func(i int, class QoSClass) {
			defer wg.Done()
			if _, err := b.submit(sample(i), class, time.Time{}); err != nil {
				t.Error(err)
			}
		}(i, class)
	}
	wg.Wait()
	for _, class := range []QoSClass{QoSGold, QoSBatch} {
		if got := c.qwCount[class].Load(); got != 1 {
			t.Fatalf("class %v wait count %d, want 1", class, got)
		}
		var hist uint64
		for i := range c.qwHist[class] {
			hist += c.qwHist[class][i].Load()
		}
		if hist != 1 {
			t.Fatalf("class %v histogram total %d, want 1", class, hist)
		}
	}
	if got := c.qwCount[QoSStandard].Load(); got != 0 {
		t.Fatalf("standard wait count %d, want 0 (no standard riders)", got)
	}
}

// ---- QoS policy plumbing. ----

func TestQoSClassRoundTrip(t *testing.T) {
	for c := QoSClass(0); c < NumQoSClasses; c++ {
		got, err := ParseQoSClass(c.String())
		if err != nil || got != c {
			t.Fatalf("round trip %v: got %v err %v", c, got, err)
		}
	}
	if got, err := ParseQoSClass(""); err != nil || got != QoSStandard {
		t.Fatalf("empty class: got %v err %v, want standard", got, err)
	}
	if _, err := ParseQoSClass("platinum"); err == nil {
		t.Fatal("unknown class must be rejected")
	}
}

func TestParseQoSPolicy(t *testing.T) {
	base := DefaultQoSPolicy(QoSGold)
	pol, err := ParseQoSPolicy(base, "budget=5ms,rps=123,burst=7")
	if err != nil {
		t.Fatal(err)
	}
	if pol.LatencyBudget != 5*time.Millisecond || pol.QuotaRPS != 123 || pol.QuotaBurst != 7 {
		t.Fatalf("parsed %+v", pol)
	}
	if pol, err := ParseQoSPolicy(base, ""); err != nil || pol != base {
		t.Fatalf("empty spec must return base unchanged: %+v err %v", pol, err)
	}
	for _, bad := range []string{"budget", "budget=xyz", "rps=abc", "color=red"} {
		if _, err := ParseQoSPolicy(base, bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

func TestQoSRuntimeDefaults(t *testing.T) {
	rt := newQoSRuntime(QoSOptions{}, 256)
	// Default watermark 0.5 of default global queue 4*MaxQueue.
	if rt.shedAt != 512 {
		t.Fatalf("shedAt %d, want 512", rt.shedAt)
	}
	if rt.policy(QoSGold).LatencyBudget >= rt.policy(QoSBatch).LatencyBudget {
		t.Fatal("gold budget must be tighter than batch")
	}
	if rt.policy(QoSGold).QuotaRPS <= rt.policy(QoSBatch).QuotaRPS {
		t.Fatal("gold quota must exceed batch")
	}
	// Out-of-range classes degrade to standard, never panic.
	if rt.policy(QoSClass(99)) != rt.policy(QoSStandard) {
		t.Fatal("out-of-range class must degrade to standard")
	}
}

func TestTokenBucket(t *testing.T) {
	var tb tokenBucket
	now := time.Now()
	// Starts full at burst.
	if !tb.take(3, 10, 3, now) {
		t.Fatal("full bucket must cover burst")
	}
	if tb.take(1, 10, 3, now) {
		t.Fatal("empty bucket must refuse")
	}
	// Refills at rps; a failed take leaves the balance untouched.
	if !tb.take(1, 10, 3, now.Add(100*time.Millisecond)) {
		t.Fatal("0.1s at 10 rps refills 1 token")
	}
	// Cap at burst, never beyond.
	if !tb.take(3, 10, 3, now.Add(time.Hour)) {
		t.Fatal("bucket must refill to burst")
	}
	if tb.take(1, 10, 3, now.Add(time.Hour)) {
		t.Fatal("bucket must not refill beyond burst")
	}
	// rps <= 0 is unlimited.
	if !tb.take(1e9, 0, 0, now) {
		t.Fatal("rps<=0 must always admit")
	}
}

// ---- Admission and shedding through Server.Predict (stub-free table). ----

// shedOpts returns serving options with an aggressive QoS config: burst-1
// quotas with negligible refill and a shed watermark of one queued sample,
// so a second over-quota predict sheds deterministically while the first
// pins the queue.
func shedOpts(class QoSClass) Options {
	opts := quickOpts()
	opts.MaxBatch = 100 // only forceFlush releases the pinned leader
	opts.Linger = 30 * time.Second
	opts.MaxQueue = 64
	pol := QoSPolicy{LatencyBudget: time.Hour, QuotaRPS: 1e-9, QuotaBurst: 1}
	opts.QoS = QoSOptions{ShedWatermark: 1, GlobalQueue: 1}
	switch class {
	case QoSGold:
		opts.QoS.Gold = pol
	case QoSBatch:
		opts.QoS.Batch = pol
	default:
		opts.QoS.Standard = pol
	}
	return opts
}

// TestWeightedSheddingPerClass: for every QoS class, a tenant that exhausts
// its quota while the server is past the shed watermark is dropped with
// ErrOverQuota and counted in ShedByClass — and a compliant tenant keeps
// being served through the same pressure.
func TestWeightedSheddingPerClass(t *testing.T) {
	for c := QoSClass(0); c < NumQoSClasses; c++ {
		t.Run(c.String(), func(t *testing.T) {
			s := newTestServer(t, shedOpts(c))
			abuser, compliant := []int{0, 2}, []int{1, 3}
			p, _, err := s.PersonalizeQoS(abuser, c)
			if err != nil {
				t.Fatal(err)
			}
			// The compliant tenant keeps the default (unthrottled) policy of
			// a DIFFERENT class, so only the abuser's bucket is burst-1.
			other := QoSGold
			if c == QoSGold {
				other = QoSStandard
			}
			pc, _, err := s.PersonalizeQoS(compliant, other)
			if err != nil {
				t.Fatal(err)
			}
			xs := splitRows(s.ds.MakeSplit("shed-"+c.String(), abuser, 2).X)
			cx := splitRows(s.ds.MakeSplit("shed-ok-"+c.String(), compliant, 2).X)

			// First predict spends the burst-1 bucket and pins the queue
			// behind the lingering leader (queued=1 >= shedAt=1).
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Predict(abuser, xs[0]); err != nil {
					t.Errorf("first predict (burst) failed: %v", err)
				}
			}()
			waitFor(t, func() bool { return s.Stats().QueueDepth >= 1 })

			// Second predict: bucket empty, pressure on → shed.
			if _, err := s.Predict(abuser, xs[1]); !errors.Is(err, ErrOverQuota) {
				t.Fatalf("over-quota predict returned %v, want ErrOverQuota", err)
			}
			// Compliant tenant rides through the same pressure untouched.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Predict(compliant, cx[0]); err != nil {
					t.Errorf("compliant predict shed: %v", err)
				}
			}()
			waitFor(t, func() bool { return s.Stats().QueueDepth >= 2 })

			p.bat.forceFlush()
			pc.bat.forceFlush()
			wg.Wait()

			st := s.Stats()
			if got := st.ShedByClass[c.String()]; got != 1 {
				t.Fatalf("ShedByClass[%s] = %d, want 1 (%v)", c, got, st.ShedByClass)
			}
			var total uint64
			for _, v := range st.ShedByClass {
				total += v
			}
			if total != 1 {
				t.Fatalf("total sheds %d, want 1 (%v)", total, st.ShedByClass)
			}
			if st.Rejected != 0 {
				t.Fatalf("Rejected %d, want 0 — shedding must not masquerade as queue overflow", st.Rejected)
			}
		})
	}
}

// TestOverQuotaAdmittedBelowWatermark: quotas only bite under pressure — an
// over-quota tenant on an idle server is still served.
func TestOverQuotaAdmittedBelowWatermark(t *testing.T) {
	opts := quickOpts()
	opts.MaxBatch = 4
	opts.Linger = time.Millisecond
	opts.MaxQueue = 64
	// Burst-1 quota but a sky-high watermark: pressure never arrives.
	opts.QoS = QoSOptions{Standard: QoSPolicy{LatencyBudget: time.Hour, QuotaRPS: 1e-9, QuotaBurst: 1}}
	s := newTestServer(t, opts)
	if _, _, err := s.Personalize([]int{0, 4}); err != nil {
		t.Fatal(err)
	}
	xs := splitRows(s.ds.MakeSplit("underwm", []int{0, 4}, 2).X)
	for i := 0; i < 2; i++ {
		if _, err := s.Predict([]int{0, 4}, xs[i]); err != nil {
			t.Fatalf("predict %d on an idle server shed: %v", i, err)
		}
	}
	if st := s.Stats(); st.ShedByClass["standard"] != 0 {
		t.Fatalf("idle server shed %v", st.ShedByClass)
	}
}

// TestQoSDisabledNeverSheds: -qos-off (QoSOptions.Disabled) must bypass
// quotas and deadlines entirely — the FIFO baseline semantics.
func TestQoSDisabledNeverSheds(t *testing.T) {
	opts := quickOpts()
	opts.MaxBatch = 4
	opts.Linger = time.Millisecond
	opts.MaxQueue = 64
	opts.QoS = QoSOptions{
		Disabled: true,
		Standard: QoSPolicy{QuotaRPS: 1e-9, QuotaBurst: 1},
		// Even an absurd watermark must be ignored when disabled.
		ShedWatermark: 1, GlobalQueue: 1,
	}
	s := newTestServer(t, opts)
	if s.Stats().QoSEnabled {
		t.Fatal("QoSEnabled must report false when disabled")
	}
	if _, _, err := s.Personalize([]int{2, 5}); err != nil {
		t.Fatal(err)
	}
	xs := splitRows(s.ds.MakeSplit("fifo", []int{2, 5}, 3).X)
	for i, x := range xs {
		if _, err := s.Predict([]int{2, 5}, x); err != nil {
			t.Fatalf("predict %d with QoS disabled failed: %v", i, err)
		}
	}
}

// TestPersonalizeQoSReclass: PersonalizeQoS on a cached tenant re-classes it
// in place (serving-time state only; snapshots do not persist it).
func TestPersonalizeQoSReclass(t *testing.T) {
	s := newTestServer(t, quickOpts())
	p, cached, err := s.Personalize([]int{1, 4})
	if err != nil || cached {
		t.Fatalf("first personalize: cached=%v err=%v", cached, err)
	}
	if got := p.QoS(); got != QoSStandard {
		t.Fatalf("default class %v, want standard", got)
	}
	p2, cached, err := s.PersonalizeQoS([]int{1, 4}, QoSGold)
	if err != nil || !cached {
		t.Fatalf("re-class: cached=%v err=%v", cached, err)
	}
	if p2 != p {
		t.Fatal("re-class must hit the cached personalization")
	}
	if got := p.QoS(); got != QoSGold {
		t.Fatalf("class after re-class %v, want gold", got)
	}
}

// ---- Priority lanes. ----

// TestPoolLaneStarvationFreedom: with >= 2 workers, a personalize flood can
// never occupy every worker — a predict-lane job still runs. This is the
// guarantee that a burst of explicit /personalize prunes cannot starve
// /predict cache-miss resolution (and vice versa, by symmetry).
func TestPoolLaneStarvationFreedom(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	// Flood the personalize lane far past the worker count; the lane cap
	// (workers-1 = 1) admits one at a time, leaving a worker free.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.DoLane(LanePersonalize, func() {
				started <- struct{}{}
				<-block
			})
		}()
	}
	<-started // at least one personalize job is occupying its worker

	done := make(chan struct{})
	go func() {
		p.DoLane(LanePredict, func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("predict-lane job starved behind the personalize flood")
	}
	close(block)
	wg.Wait()
}

// ---- The -race storm with mixed QoS classes. ----

// TestQoSStormRace hammers one QoS-enabled server with concurrent predicts
// across all three classes, tight quotas, deadline flushes, re-classing and
// a forced drain — the -race interleaving test for the scheduling layer.
func TestQoSStormRace(t *testing.T) {
	opts := quickOpts()
	opts.CacheSize = 4
	opts.MaxBatch = 4
	opts.Linger = 2 * time.Millisecond
	opts.MaxQueue = 16
	opts.QoS = QoSOptions{
		Gold:     QoSPolicy{LatencyBudget: time.Millisecond, QuotaRPS: 50, QuotaBurst: 4},
		Standard: QoSPolicy{LatencyBudget: 5 * time.Millisecond, QuotaRPS: 25, QuotaBurst: 2},
		Batch:    QoSPolicy{LatencyBudget: 50 * time.Millisecond, QuotaRPS: 10, QuotaBurst: 2},
		// Low watermark so the storm actually sheds.
		ShedWatermark: 0.1, GlobalQueue: 10,
	}
	s := newTestServer(t, opts)

	sets := [][]int{{0, 1}, {2, 3}, {4, 5}}
	classes := []QoSClass{QoSGold, QoSStandard, QoSBatch}
	inputs := make([][]*tensor.Tensor, len(sets))
	for i, set := range sets {
		if _, _, err := s.PersonalizeQoS(set, classes[i]); err != nil {
			t.Fatal(err)
		}
		inputs[i] = splitRows(s.ds.MakeSplit("qos-storm", set, 2).X)
	}

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(sets)
				switch {
				case c == 0 && r == rounds/2:
					// Re-class a tenant mid-storm.
					if _, _, err := s.PersonalizeQoS(sets[i], classes[(i+1)%len(classes)]); err != nil {
						t.Errorf("re-class: %v", err)
					}
				case c == 1 && r == rounds-1:
					s.DrainBatches()
				default:
					x := inputs[i][(c+r)%len(inputs[i])]
					_, err := s.Predict(sets[i], x)
					if err != nil && !errors.Is(err, ErrOverQuota) && !errors.Is(err, ErrOverloaded) {
						t.Errorf("predict: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	s.DrainBatches()

	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth stuck at %d", st.QueueDepth)
	}
	if !st.QoSEnabled {
		t.Fatal("QoSEnabled must report true")
	}
	// Served + shed + overloaded must cover every attempted predict; the
	// wait histograms must be coherent with their counts.
	var waits uint64
	for name, qw := range st.QueueWait {
		var hist uint64
		for _, b := range qw.Hist {
			hist += b
		}
		if hist != qw.Count {
			t.Fatalf("class %s histogram total %d != count %d", name, hist, qw.Count)
		}
		waits += qw.Count
	}
	if st.SamplesPredicted == 0 {
		t.Fatal("storm predicted nothing")
	}
	if waits != st.SamplesPredicted {
		// Every predicted sample in this test is a 1-row request that went
		// through a batcher, so wait observations must match samples.
		t.Fatalf("wait observations %d != samples predicted %d", waits, st.SamplesPredicted)
	}
}
