package serve

import (
	"runtime"
	"sync"
)

// Lane classifies pool work for priority admission: jobs submitted through
// DoLane are capped per lane at workers-1 concurrent executions, so one
// lane can never occupy every worker — a flood of explicit /personalize
// prunes always leaves a worker for predict-triggered restores, and vice
// versa. Unlaned Do work (snapshots) is subject to no cap.
type Lane int

const (
	// LanePersonalize carries explicit Personalize prunes (the expensive,
	// multi-second jobs).
	LanePersonalize Lane = iota
	// LanePredict carries predict-triggered cache-miss resolution (warm
	// promotions, cold restores, miss prunes) and cluster handoff adopts.
	LanePredict
	laneCount
)

// Pool is a bounded worker pool: a fixed set of goroutines draining an
// unbuffered job channel. Submission blocks until a worker is free, which
// gives natural backpressure — at most Workers() jobs run at once and
// nothing queues without bound. Server schedules its personalization,
// restore and snapshot jobs on it; nothing outside the serving layer shares
// it.
type Pool struct {
	jobs    chan func()
	workers int
	wg      sync.WaitGroup

	// lanes are counting semaphores bounding each lane at workers-1 in
	// flight (1 when the pool has a single worker, where no reservation is
	// possible). A laned job holds its slot across the whole Do — including
	// the wait for a worker — so at most cap(lane) workers ever run that
	// lane and at least one worker stays available to the other lane.
	lanes [laneCount]chan struct{}

	// mu guards closed; submitters hold it shared while handing a job to a
	// worker, so Close cannot close the channel under an in-flight send.
	mu     sync.RWMutex
	closed bool
}

// NewPool starts a pool with the given number of workers; workers <= 0
// means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func()), workers: workers}
	laneCap := workers - 1
	if laneCap < 1 {
		laneCap = 1
	}
	for i := range p.lanes {
		p.lanes[i] = make(chan struct{}, laneCap)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// submit hands f to a worker, blocking until one accepts it. It reports
// false without running f if the pool is closed.
func (p *Pool) submit(f func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.jobs <- f
	return true
}

// Do runs f on a worker and waits for it to complete. On a closed pool f
// runs inline on the caller's goroutine instead — degraded, never dropped.
// Do must not be called from inside a pool job: with every worker blocked
// on a nested Do the pool would deadlock.
func (p *Pool) Do(f func()) {
	done := make(chan struct{})
	if !p.submit(func() {
		defer close(done)
		f()
	}) {
		f()
		return
	}
	<-done
}

// DoLane is Do with priority admission: the job first claims one of its
// lane's workers-1 slots (blocking behind its own lane's backlog, never the
// other lane's), then runs like Do. With two or more workers this
// guarantees starvation-freedom between the lanes: however deep the
// personalize backlog, a predict-triggered job waits behind at most its own
// lane, and there is always a worker the saturated lane cannot hold.
func (p *Pool) DoLane(lane Lane, f func()) {
	sem := p.lanes[lane]
	sem <- struct{}{}
	defer func() { <-sem }()
	p.Do(f)
}

// Close stops accepting pool work and waits for in-flight jobs to drain.
// It is idempotent and safe to call concurrently with Do: submissions
// that lose the race run inline on their caller instead of panicking.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
