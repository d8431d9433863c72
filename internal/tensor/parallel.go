package tensor

import (
	"runtime"
	"sync"
)

// ParallelThreshold is the number of multiply-accumulate operations below
// which GEMM and SpMM kernels run single-threaded; handing work to the pool
// costs more than it saves on tiny matrices. Single-sample inference on
// the scaled models mostly stays under it; batched inference crosses it.
const ParallelThreshold = 1 << 16

// RowJob is one kernel call's argument record: its fields are the kernel's
// arguments, Rows computes output rows [r0, r1) from them, and the
// embedded Join counts the row chunks still in flight.
type RowJob interface {
	Rows(r0, r1 int)
	join() *Join
}

// Join is the join counter a RowJob embeds (its zero value is ready).
// Embedding it is the only way to satisfy RowJob outside this package.
type Join struct{ wg sync.WaitGroup }

func (j *Join) join() *Join { return j }

// JobPool is one kernel's fan-out: it recycles the kernel's job records,
// and Run is the one way a kernel hands rows to the worker pool.
type JobPool[J any, P interface {
	*J
	RowJob
}] struct{ p sync.Pool }

// Run copies args into a pooled record and runs its Rows over [0, rows):
// in one call on the caller when work (a multiply-accumulate count) is
// under ParallelThreshold, split into contiguous chunks across the
// persistent worker pool otherwise. Each row chunk is processed by exactly
// one worker, so kernels that give every output row a single writer stay
// bit-identical to their sequential loops. Run returns once every chunk is
// done, and zeroes the record before parking it, so a record carries no
// caller's slices from one call to the next.
//
// Nothing here allocates once the pool holds a record: the worker pool's
// tasks carry the record's pointer, and the join counter is the record's
// own.
func (jp *JobPool[J, P]) Run(rows, work int, args J) {
	j, ok := jp.p.Get().(*J)
	if !ok {
		j = new(J)
	}
	*j = args
	parallelRows(rows, work, P(j))
	var zero J
	*j = zero
	jp.p.Put(j)
}

// poolTask is one contiguous row chunk of one kernel call.
type poolTask struct {
	job    RowJob
	r0, r1 int
}

// workerPool is the persistent, package-level kernel worker pool shared by
// the dense GEMM and the sparse SpMM plans (internal/format). It is
// started lazily on the first call large enough to fan out; the
// steady-state predict path spawns no goroutines. Worker count is fixed at
// GOMAXPROCS observed at start; tasks are leaf computations that never
// submit further tasks, so concurrent kernel calls can share the one queue
// without deadlock.
var workerPool struct {
	once    sync.Once
	workers int
	tasks   chan poolTask
}

func startWorkerPool() {
	workerPool.workers = runtime.GOMAXPROCS(0)
	workerPool.tasks = make(chan poolTask, 4*workerPool.workers)
	for i := 0; i < workerPool.workers; i++ {
		go func() {
			for t := range workerPool.tasks {
				t.job.Rows(t.r0, t.r1)
				t.job.join().wg.Done()
			}
		}()
	}
}

// parallelRows runs job.Rows over [0, rows) for JobPool.Run. The
// submitting goroutine executes the last chunk itself: a fan-out over w
// chunks costs w-1 queue handoffs and no goroutine startup.
func parallelRows(rows, work int, job RowJob) {
	if work < ParallelThreshold || rows < 2 {
		job.Rows(0, rows)
		return
	}
	workerPool.once.Do(startWorkerPool)
	workers := min(workerPool.workers, rows)
	if workers == 1 {
		job.Rows(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	wg := &job.join().wg
	last := 0
	for r0 := 0; r0+chunk < rows; r0 += chunk {
		wg.Add(1)
		workerPool.tasks <- poolTask{job: job, r0: r0, r1: r0 + chunk}
		last = r0 + chunk
	}
	job.Rows(last, rows) // the caller's own share
	wg.Wait()
}
