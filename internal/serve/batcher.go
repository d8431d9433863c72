package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// ErrOverloaded reports an admission-control rejection: the personalization's
// predict queue is full, so the request was dropped instead of queued without
// bound. crisp serve maps it to HTTP 429; callers should back off and
// retry.
var ErrOverloaded = errors.New("serve: overloaded: predict queue full")

// predictReq is one caller's Predict waiting in a batcher's queue. The
// caller blocks on done; the flusher fills preds/err and then sends one
// value on done (not close: requests are pooled, and a buffered channel can
// be reused where a closed one cannot).
//
// The queue is the requests themselves, linked through next, so enqueueing
// a rider never grows a slice. Until the done send the batcher owns the
// request (next included); after it the submitter does.
type predictReq struct {
	x    *tensor.Tensor // [B,C,H,W]
	rows int            // x.Shape[0]
	done chan struct{}  // buffered(1); one send per enqueue
	// arrival is when the request entered the queue; the leader's flush
	// decision and the queue-wait histogram are both relative to it.
	arrival time.Time
	// deadline is arrival + the rider's QoS latency budget; zero means no
	// deadline (QoS disabled or no budget). class tags the rider's QoS
	// class for the queue-wait histogram.
	deadline time.Time
	class    QoSClass
	// preds is this request's slice of the fanned-out batch result; err is
	// set instead when the whole batch failed (or the queue rejected it
	// before enqueueing).
	preds []int
	err   error
	// next is the rider queued behind this one (nil at the tail).
	next *predictReq
	// xs is the request's gather scratch for the flushes it leads: the
	// leader's request heads its queue, so the flush's inputs go into the
	// head's xs, which it keeps (cleared) for its next lead.
	xs []*tensor.Tensor
}

// reqPool recycles predictReqs (with their channels and gather scratch)
// across Predict calls: the submitting goroutine is the only owner after the
// done signal, so it returns the request once it has copied the result out.
// Keeps the steady-state batched predict path allocation-free on the serve
// side, however flush generations overlap (TestBatcherOverlapAllocatesNothing).
var reqPool = sync.Pool{New: func() any {
	return &predictReq{done: make(chan struct{}, 1)}
}}

// lingerTimers recycles the leaders' linger timers (one per flush).
var lingerTimers sync.Pool

// batcher coalesces concurrent Predict calls against one personalized
// engine into shared PredictBatch invocations. There is no background
// goroutine: the first caller into an empty queue becomes the batch
// *leader*, waits up to linger for followers to accumulate (woken early via
// kick when the queue reaches maxBatch samples), then takes the whole queue,
// runs one engine call over the concatenated inputs, and fans the argmax
// rows back out to every waiter. Followers just block on their request.
//
// The engine call is bit-identical to running each request alone: batched
// SpMM accumulates every output element in the same order regardless of
// batch size (TestLogitsBatchBitIdentical in internal/inference), and the
// concat the engine performs inside its arena is a pure row-wise copy.
//
// Admission control: at most maxQueue samples wait in the queue; a request
// that would overflow it is rejected with ErrOverloaded instead of queueing
// unboundedly (a single request larger than maxQueue is still admitted when
// the queue is empty — it flushes as its own batch and could never be
// admitted otherwise).
type batcher struct {
	// eng runs one invocation over the batch's sample tensors: the tenant's
	// *inference.Engine, which concatenates them inside its own arena, so a
	// coalesced flush allocates no more than a solo one.
	eng      batchPredictor
	maxBatch int              // soft flush threshold, in samples
	linger   time.Duration    // leader's max wait for followers
	maxQueue int              // admission bound, in samples
	counters *predictCounters // shared with the owning Server

	mu         sync.Mutex
	head, tail *predictReq // the queue, linked through next; head is the leader's
	queued     int         // samples queued
	forced     bool        // a forceFlush kicked the current generation

	// kick wakes a lingering leader early (queue reached maxBatch, or a
	// forced flush). Buffered so enqueuers never block on it; sends and
	// drains happen under mu, so a kick can never go stale.
	kick chan struct{}

	// ewmaNS tracks the engine's recent batch latency (exponentially
	// weighted, 1/8 gain). The deadline-aware flush subtracts it from the
	// oldest rider's deadline so the rider's *total* latency — queue wait
	// plus the engine call — lands inside its budget, not just the wait.
	ewmaNS atomic.Int64
}

// batchPredictor is what a batcher flushes into: an *inference.Engine.
type batchPredictor interface {
	PredictBatch(xs []*tensor.Tensor) []int
}

// initBatcher readies b, the per-personalization batcher, to flush into
// eng and returns it, or returns nil when batching is disabled
// (MaxBatch <= 1): a nil batcher makes Server.Predict take the solo path.
func (s *Server) initBatcher(b *batcher, eng batchPredictor) *batcher {
	if s.opts.MaxBatch <= 1 {
		return nil
	}
	b.eng = eng
	b.maxBatch = s.opts.MaxBatch
	b.linger = s.opts.Linger
	b.maxQueue = s.opts.MaxQueue
	b.counters = &s.counters
	b.kick = make(chan struct{}, 1)
	return b
}

// submit enqueues x, drives the flush if this caller is the leader, and
// blocks until the request's rows are predicted (or rejected/failed).
// deadline is the rider's QoS latency deadline (zero: none); class tags the
// rider for the queue-wait histogram.
func (b *batcher) submit(x *tensor.Tensor, class QoSClass, deadline time.Time) ([]int, error) {
	req := reqPool.Get().(*predictReq)
	req.x, req.rows = x, x.Shape[0]
	req.arrival, req.deadline, req.class = time.Now(), deadline, class

	b.mu.Lock()
	if b.queued > 0 && b.queued+req.rows > b.maxQueue {
		queued := b.queued
		b.mu.Unlock()
		req.x = nil
		reqPool.Put(req)
		b.counters.rejected.Add(1)
		return nil, fmt.Errorf("%w (%d samples queued, bound %d)", ErrOverloaded, queued, b.maxQueue)
	}
	leader := b.head == nil
	if leader {
		b.head = req
	} else {
		b.tail.next = req
	}
	b.tail = req
	b.queued += req.rows
	b.counters.queued.Add(int64(req.rows))
	if b.queued >= b.maxBatch {
		b.kickLocked()
	}
	b.mu.Unlock()

	if leader {
		b.lead()
	}
	<-req.done
	// The flusher is done with req after the send; this goroutine owns it
	// again and recycles it once the result is copied out.
	preds, err := req.preds, req.err
	req.x, req.preds, req.err, req.next = nil, nil, nil, nil
	reqPool.Put(req)
	return preds, err
}

// kickLocked wakes the lingering leader without blocking; callers hold mu.
func (b *batcher) kickLocked() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// forceFlush wakes the current leader immediately, flushing whatever is
// queued without waiting out the linger (Server.DrainBatches; a no-op when
// nothing is queued). The flush runs on the leader's goroutine — callers
// that need the results delivered must wait on those requests, not on this.
func (b *batcher) forceFlush() {
	b.mu.Lock()
	if b.queued > 0 {
		b.forced = true
		b.kickLocked()
	}
	b.mu.Unlock()
}

// flushWait returns how long the leader should linger before flushing, and
// whether the wait is deadline-limited rather than linger-limited. Both
// bounds are relative to the OLDEST rider, not to when the leader's
// goroutine happens to run:
//
//   - the linger window closes at oldestArrival + linger, so a leader that
//     was descheduled between enqueueing and leading does not tax the queue
//     with a second full linger — a queue whose oldest rider arrived long
//     ago flushes immediately;
//   - the deadline window closes at oldestDeadline - estimated engine time,
//     so the rider's whole budget is not eaten lingering for batch mates.
func (b *batcher) flushWait(oldestArrival, oldestDeadline time.Time, now time.Time) (wait time.Duration, deadlineCut bool) {
	wait = oldestArrival.Add(b.linger).Sub(now)
	if !oldestDeadline.IsZero() {
		guard := time.Duration(b.ewmaNS.Load())
		if d := oldestDeadline.Add(-guard).Sub(now); d < wait {
			return d, true
		}
	}
	return wait, false
}

// lead is the leader's side of the protocol: linger, take the queue, run
// the engine once, fan out.
func (b *batcher) lead() {
	deadlineCut := false
	if b.linger > 0 {
		b.mu.Lock()
		// The leader's own request is the head (only lead empties the
		// queue), and the head is the oldest rider.
		arrival, deadline := b.head.arrival, b.head.deadline
		b.mu.Unlock()

		var wait time.Duration
		wait, deadlineCut = b.flushWait(arrival, deadline, time.Now())
		if wait > 0 {
			t, _ := lingerTimers.Get().(*time.Timer)
			if t == nil {
				t = time.NewTimer(wait)
			} else {
				t.Reset(wait)
			}
			select {
			case <-t.C:
			case <-b.kick:
				// Drain a concurrent fire so the recycled timer's channel is
				// empty before the next Reset.
				if !t.Stop() {
					<-t.C
				}
				// The kick (size/forced) took the wait, not the deadline.
				deadlineCut = false
			}
			lingerTimers.Put(t)
		}
	}

	flushStart := time.Now()
	b.mu.Lock()
	head := b.head
	total := b.queued
	forced := b.forced
	b.head, b.tail = nil, nil
	b.queued = 0
	b.forced = false
	b.counters.queued.Add(-int64(total))
	// Drain a kick sent between the leader waking on the timer and taking
	// the queue: it refers to requests this flush already covers, and must
	// not wake the next leader early.
	select {
	case <-b.kick:
	default:
	}
	b.mu.Unlock()

	// Classify the flush by what actually took the queue, not by which
	// channel happened to wake the leader: a full batch is a size flush
	// even if the timer won the race, a forced drain of a partial batch is
	// neither a size nor a linger flush, and a deadline flush is a timer
	// expiry whose wait was cut short by the oldest rider's budget.
	switch {
	case total >= b.maxBatch:
		b.counters.flushSize.Add(1)
	case forced:
		b.counters.flushForced.Add(1)
	case deadlineCut:
		b.counters.flushDeadline.Add(1)
	default:
		b.counters.flushLinger.Add(1)
	}

	// Gather the inputs into the head's scratch, and retire every rider's
	// queue wait (arrival → flush start) into the per-class histograms
	// before the engine call so the distribution reflects pure scheduling
	// delay, not engine time.
	xs := head.xs[:0]
	for r := head; r != nil; r = r.next {
		b.counters.observeWait(r.class, flushStart.Sub(r.arrival))
		xs = append(xs, r.x)
	}
	preds, err := b.invoke(xs, total)
	// The head keeps the scratch for its next lead; cleared, so the pool
	// holds no caller's inputs.
	clear(xs)
	head.xs = xs[:0]

	off := 0
	for r := head; r != nil; {
		if err != nil {
			r.err = err
		} else {
			r.preds = preds[off : off+r.rows : off+r.rows]
		}
		off += r.rows
		// Read next before the send: it hands r back to its submitter,
		// which may recycle it at once.
		next := r.next
		r.done <- struct{}{}
		r = next
	}
}

// invoke runs one engine call over the concatenated batch, recovering a
// panic into an error: a poisoned batch must fail every waiter, not strand
// the followers behind a dead leader.
func (b *batcher) invoke(xs []*tensor.Tensor, total int) (preds []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: batched predict over %d samples failed: %v", total, r)
		}
	}()
	start := time.Now()
	preds = b.eng.PredictBatch(xs)
	d := time.Since(start)
	b.counters.observe(total, d)
	// Fold this invocation into the latency estimate the deadline flush
	// subtracts from rider budgets (1/8 gain; a lost race between loads
	// only smooths a sample into the average twice — harmless).
	if old := b.ewmaNS.Load(); old == 0 {
		b.ewmaNS.Store(d.Nanoseconds())
	} else {
		b.ewmaNS.Store(old - old/8 + d.Nanoseconds()/8)
	}
	return preds, nil
}
