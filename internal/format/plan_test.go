package format

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// planShapes are the matrix/batch geometries the bit-identity suite sweeps:
// small and large grids, partial trailing groups exercised via block sizes,
// rows of one segment and of three, and batch widths from single-sample to
// serving-batch scale.
var planShapes = []struct {
	rows, cols, b int
	nm            sparsity.NM
	pruned        int
}{
	{8, 16, 4, sparsity.NM{N: 2, M: 4}, 1},
	{12, 24, 4, sparsity.NM{N: 1, M: 4}, 2},
	{32, 64, 8, sparsity.NM{N: 2, M: 4}, 3},
	{64, 128, 16, sparsity.NM{N: 3, M: 4}, 4},
	{16, 32, 8, sparsity.NM{N: 2, M: 8}, 1},
	{16, 640, 16, sparsity.NM{N: 2, M: 4}, 10}, // three segments a row, the last 128 columns wide
}

var planBatches = []int{1, 3, 16, 64}

// TestPlanBitIdenticalCRISP is the tentpole invariant at the kernel level:
// EncodeCRISP → Compile → MatMul must produce exactly (bit for bit) what
// the slot-walking CRISPFormat.MatMul produces, across matrix families and
// batch sizes.
func TestPlanBitIdenticalCRISP(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, s := range planShapes {
		w := hybridMatrix(rng, s.rows, s.cols, s.b, s.nm, s.pruned)
		e, err := EncodeCRISP(w, s.b, s.nm)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.rows, s.cols, err)
		}
		p := e.Compile()
		if got, want := p.NNZ(), w.CountNonZero(); got != want {
			t.Fatalf("%dx%d: plan stores %d entries, matrix has %d non-zeros", s.rows, s.cols, got, want)
		}
		for _, n := range planBatches {
			x := tensor.Randn(rng, 1, s.cols, n)
			want := e.MatMul(x)
			got := p.MatMul(x)
			if !tensor.Equal(got, want, 0) {
				t.Fatalf("%dx%d batch %d: plan result differs from slot-walking kernel", s.rows, s.cols, n)
			}
		}
	}
}

// TestPlanDropsPaddingSlots: groups with fewer than N survivors store
// explicit (offset 0, value 0) padding slots in the CRISP layout; the
// compiled plan must drop them entirely while staying bit-identical.
func TestPlanDropsPaddingSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	w := hybridMatrix(rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	// Zero one survivor in the leading group of every row that has at
	// least two non-zeros in it, so blocks stay populated (the block-kept
	// set and N:M pattern both survive a value becoming zero).
	for r := 0; r < 16; r++ {
		seen := 0
		for c := 0; c < 32; c++ {
			if w.Data[r*32+c] != 0 {
				seen++
				if seen == 2 {
					w.Data[r*32+c] = 0
					break
				}
			}
		}
	}
	e, err := EncodeCRISP(w, 8, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Compile()
	if p.NNZ() >= len(e.Val) {
		t.Fatalf("plan stores %d entries, encoding stores %d slots: padding not dropped", p.NNZ(), len(e.Val))
	}
	if got, want := p.NNZ(), w.CountNonZero(); got != want {
		t.Fatalf("plan stores %d entries, matrix has %d non-zeros", got, want)
	}
	x := tensor.Randn(rng, 1, 32, 16)
	if !tensor.Equal(p.MatMul(x), e.MatMul(x), 0) {
		t.Fatal("plan with dropped padding slots differs from slot-walking kernel")
	}
}

// TestPlanBitIdenticalCSR: the CSR plan must reproduce CSR.MatMul exactly.
func TestPlanBitIdenticalCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, s := range planShapes {
		w := hybridMatrix(rng, s.rows, s.cols, s.b, s.nm, s.pruned)
		c := EncodeCSR(w)
		p := c.Compile()
		if p.NNZ() != len(c.Val) {
			t.Fatalf("plan NNZ %d vs CSR %d", p.NNZ(), len(c.Val))
		}
		for _, n := range planBatches {
			x := tensor.Randn(rng, 1, s.cols, n)
			if !tensor.Equal(p.MatMul(x), c.MatMul(x), 0) {
				t.Fatalf("%dx%d batch %d: CSR plan differs", s.rows, s.cols, n)
			}
		}
	}
}

// TestMatMulIntoOverwritesDirtyBuffer: MatMulInto must fully own its
// destination — a reused, garbage-filled buffer yields the same result as a
// fresh one (the arena contract).
func TestMatMulIntoOverwritesDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	w := hybridMatrix(rng, 32, 64, 8, sparsity.NM{N: 2, M: 4}, 2)
	e, err := EncodeCRISP(w, 8, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Compile()
	x := tensor.Randn(rng, 1, 64, 16)
	want := p.MatMul(x)
	dirty := tensor.Full(1e30, 32, 16)
	if got := p.MatMulInto(x, dirty); !tensor.Equal(got, want, 0) {
		t.Fatal("MatMulInto into a dirty buffer differs from MatMul")
	}
	// And again, into the same buffer.
	if got := p.MatMulInto(x, dirty); !tensor.Equal(got, want, 0) {
		t.Fatal("second MatMulInto into the same buffer differs")
	}
}

// visitJob is a fan-out record that counts its visits to every row and,
// when calls is set, records the ranges Rows ran on.
type visitJob struct {
	tensor.Join
	visits []int32
	calls  *[][2]int
}

func (j *visitJob) Rows(r0, r1 int) {
	for r := r0; r < r1; r++ {
		j.visits[r]++
	}
	if j.calls != nil {
		*j.calls = append(*j.calls, [2]int{r0, r1})
	}
}

var visitJobs tensor.JobPool[visitJob, *visitJob]

// TestParallelRowsPool drives the persistent worker pool directly through
// the one fan-out entry point, JobPool.Run: every row must be visited
// exactly once per call, including under many concurrent SpMM-sized calls
// sharing the pool and its recycled records.
func TestParallelRowsPool(t *testing.T) {
	const rows = 257
	run := func() {
		visits := make([]int32, rows)
		for pass := int32(1); pass <= 3; pass++ {
			// work above the threshold forces the pooled path.
			visitJobs.Run(rows, tensor.ParallelThreshold*2, visitJob{visits: visits})
			for r, v := range visits {
				if v != pass {
					t.Errorf("pass %d: row %d visited %d times in all", pass, r, v)
				}
			}
		}
	}
	run() // cold: starts the pool
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()

	// Sub-threshold work must stay on the caller, in one call.
	var calls [][2]int
	visitJobs.Run(4, 1, visitJob{visits: make([]int32, 4), calls: &calls})
	if len(calls) != 1 || calls[0] != [2]int{0, 4} {
		t.Fatalf("small problem ran as %v, want one call on [0,4)", calls)
	}
}

// TestFanOutAllocatesNothing: every serving kernel at batch 16 crosses the
// fan-out threshold and hands the worker pool a pooled job record, so a
// call allocates nothing: the conv plan, the int8 plan (its activation
// encode fans out too), and the float plan.
func TestFanOutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(41))
	const batch = 16
	w := hybridMatrix(rng, 128, 256, 8, sparsity.NM{N: 2, M: 4}, 2)
	p := EncodeCSR(w).Compile()
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 256, batch)
	out := tensor.New(128, batch)
	qs := q.Scratch(batch)

	g := tensor.ConvGeom{InC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}
	cw := hybridMatrix(rng, 16, 16*9, 4, sparsity.NM{N: 2, M: 4}, 1)
	cp := EncodeCSR(cw).Compile().CompileConv(new(ConvPlan), 3, 3, 1, 1)
	ohow := g.OutH() * g.OutW()
	xT := tensor.Randn(rng, 1, 16*8*8, batch)
	convOut := tensor.New(16*ohow, batch)
	clips := make([]float64, cp.ClipFloats())

	for _, c := range []struct {
		name string
		work int
		call func()
	}{
		{"conv-b16", cp.p.NNZ() * batch * ohow, func() { cp.MatMulBatchLastInto(xT, g, batch, convOut, clips) }},
		{"quant-b16", len(q.Code) * batch, func() { q.MatMulInto(x, out, qs) }},
		{"plan-b16", p.NNZ() * batch, func() { p.MatMulInto(x, out) }},
	} {
		if c.work < tensor.ParallelThreshold {
			t.Fatalf("%s: %d multiply-adds do not cross the fan-out threshold", c.name, c.work)
		}
		c.call() // starts the pool at the process's GOMAXPROCS and warms the scratch
		if got := testing.AllocsPerRun(50, c.call); got != 0 {
			t.Errorf("%s: a call allocates %v objects, want 0", c.name, got)
		}
	}
}

// buildPlan builds m into the next plan of slab from its non-zeros in
// row-major order.
func buildPlan(m *tensor.Tensor, slab *PlanSlab) (*Plan, error) {
	if err := slab.Begin(m.Shape[0], m.Shape[1]); err != nil {
		return nil, err
	}
	for i, v := range m.Data {
		if v != 0 {
			slab.Add(i, v)
		}
	}
	return slab.End()
}

// TestPlanSlabCarvesExactly: planShapes' matrices, built one after another
// into one slab sized for all of them from their non-zeros in row-major
// order, are the plans Compile returns alone — from the CRISP encoding and
// from CSR alternately — with the same fingerprint, every slice capped at
// its length, and the slab ends empty. A slab one entry short fails the last
// plan and carves nothing for it; a rewound slab carves from the start of
// its arrays again; an entry out of order or past the matrix fails its
// plan. Matrices that make Add step rows other than one at a time (leading,
// inner and trailing empty rows, a last entry in the last column, a single
// column) build the CSR encoding's rows, columns and values exactly.
func TestPlanSlabCarvesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	var ms []*tensor.Tensor
	plans, segments, nnz := 0, 0, 0
	for _, s := range planShapes {
		m := hybridMatrix(rng, s.rows, s.cols, s.b, s.nm, s.pruned)
		ms = append(ms, m)
		plans, segments, nnz = plans+1, segments+s.rows*segs(s.cols), nnz+m.CountNonZero()
	}
	alone := func(i int) *Plan {
		if i%2 == 1 {
			return EncodeCSR(ms[i]).Compile()
		}
		e, err := EncodeCRISP(ms[i], planShapes[i].b, planShapes[i].nm)
		if err != nil {
			t.Fatal(err)
		}
		return e.Compile()
	}
	slab := NewPlanSlab(plans, segments, nnz)
	var first *Plan
	for i, m := range ms {
		got, err := buildPlan(m, &slab)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
		}
		if want := alone(i); got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("plan %d from the slab differs from the plan compiled alone", i)
		}
		if cap(got.RowPtr) != len(got.RowPtr) || cap(got.Col) != len(got.Col) || cap(got.Val) != len(got.Val) {
			t.Fatalf("plan %d: slices not capped at their length", i)
		}
	}
	if p, r, z := slab.Left(); p+r+z != 0 {
		t.Fatalf("slab sized for the plans has %d plans, %d segments, %d entries left", p, r, z)
	}

	short := NewPlanSlab(plans, segments, nnz-1)
	last := len(ms) - 1
	for _, m := range ms[:last] {
		if _, err := buildPlan(m, &short); err != nil {
			t.Fatal(err)
		}
	}
	p0, r0, z0 := short.Left()
	if _, err := buildPlan(ms[last], &short); err == nil {
		t.Fatal("a slab one entry short built the last plan")
	}
	if p, r, z := short.Left(); p != p0 || r != r0 || z != z0 {
		t.Fatal("a failed build consumed the slab")
	}

	// Rewind reuses the arrays: the next plan lands where the first one did.
	slab.Rewind()
	again, err := buildPlan(ms[0], &slab)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Val[0] != &first.Val[0] || &again.RowPtr[0] != &first.RowPtr[0] {
		t.Fatal("a rewound slab did not carve from the start of its arrays")
	}

	slab.Rewind()
	if err := slab.Begin(2, 3); err != nil {
		t.Fatal(err)
	}
	slab.Add(4, 1)
	slab.Add(2, 1)
	if _, err := slab.End(); err == nil {
		t.Fatal("an entry before its predecessor built a plan")
	}
	if err := slab.Begin(2, 3); err != nil {
		t.Fatal(err)
	}
	slab.Add(6, 1)
	if _, err := slab.End(); err == nil {
		t.Fatal("an entry past the matrix built a plan")
	}

	// Each matrix lists its shape, then its non-zeros' (row, column).
	for _, c := range [][]int{
		{6, 5, 2, 0, 2, 4, 5, 4},                 // two empty rows first, two inside, the last in the last column
		{7, 4, 1, 3, 2, 0, 4, 2},                 // a row ending in its last column, then two empty rows
		{3, 4},                                   // no entry at all
		{1, 1, 0, 0},                             // one entry, the whole matrix
		{5, 1, 0, 0, 2, 0, 3, 0},                 // one column: every entry steps a row
		{4, 3, 3, 0, 3, 1, 3, 2},                 // every entry in the last row
		{4, 6, 0, 5, 1, 0, 3, 0, 3, 5},           // row ends and row starts back to back
		{3, 600, 0, 255, 0, 256, 1, 599, 2, 512}, // segment edges, a row's only entry in its last segment
		{2, 256, 0, 255, 1, 0},                   // a full segment's last column, then the next row's first
		{2, 513, 1, 512},                         // every segment empty but the last of the last row
	} {
		slab.Rewind()
		m := tensor.New(c[0], c[1])
		for k := 2; k < len(c); k += 2 {
			m.Data[c[k]*c[1]+c[k+1]] = float64(k)
		}
		got, err := buildPlan(m, &slab)
		if err != nil {
			t.Fatal(err)
		}
		csr := EncodeCSR(m)
		want := csr.Compile()
		checkPlanIsCSR(t, fmt.Sprint(c), got, csr)
		checkPlanIsCSR(t, fmt.Sprint(c), want, csr)
	}
}

// checkPlanIsCSR holds p's layout to the CSR encoding it images: each row's
// segment spans, back to back, start where the CSR row starts, and each
// entry is the CSR's, in order, with its column cut into its segment (the
// span it sits in) and its one-byte offset.
func checkPlanIsCSR(t *testing.T, label string, p *Plan, csr *CSR) {
	t.Helper()
	ns := segs(p.Cols)
	if len(p.RowPtr) != p.Rows*ns+1 || len(p.Col) != len(csr.ColIdx) || len(p.Val) != len(csr.Val) {
		t.Fatalf("%s: %d row pointers and %d entries, want %d and %d", label, len(p.RowPtr), len(p.Col), p.Rows*ns+1, len(csr.ColIdx))
	}
	for r := range p.Rows + 1 {
		if p.RowPtr[r*ns] != csr.RowPtr[r] {
			t.Fatalf("%s: row %d starts at %d, CSR at %d", label, r, p.RowPtr[r*ns], csr.RowPtr[r])
		}
	}
	for k := range p.Rows * ns {
		if p.RowPtr[k] > p.RowPtr[k+1] {
			t.Fatalf("%s: segment span %d runs backwards: %v", label, k, p.RowPtr)
		}
		for i := p.RowPtr[k]; i < p.RowPtr[k+1]; i++ {
			if col := k%ns*SegCols + int(p.Col[i]); col != int(csr.ColIdx[i]) || p.Val[i] != csr.Val[i] {
				t.Fatalf("%s: entry %d is (%d, %v), CSR (%d, %v)", label, i, col, p.Val[i], csr.ColIdx[i], csr.Val[i])
			}
		}
	}
}

// TestZeroPlanSlabCounts: the zero PlanSlab takes the calls of planShapes'
// builds and carves nothing — End returns no plan and no error — and its
// Left is what they would carve, so a slab made at it holds the same builds
// exactly. Rewound before each build, it counts the largest, which is what
// a scratch slab every build rewinds must hold.
func TestZeroPlanSlabCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var counted, scratch PlanSlab
	var ms []*tensor.Tensor
	most := [3]int{1, 0, 0}
	for _, s := range planShapes {
		m := hybridMatrix(rng, s.rows, s.cols, s.b, s.nm, s.pruned)
		ms = append(ms, m)
		scratch.Rewind()
		for _, slab := range []*PlanSlab{&counted, &scratch} {
			if p, err := buildPlan(m, slab); p != nil || err != nil {
				t.Fatalf("a counting slab built %v (%v)", p, err)
			}
		}
		most[1], most[2] = max(most[1], s.rows*segs(s.cols)), max(most[2], m.CountNonZero())
	}
	slab := NewPlanSlab(counted.Left())
	for _, m := range ms {
		if _, err := buildPlan(m, &slab); err != nil {
			t.Fatal(err)
		}
	}
	if p, r, z := slab.Left(); p+r+z != 0 {
		t.Fatalf("a slab made at the count has %d plans, %d segments, %d entries left", p, r, z)
	}
	if p, r, z := scratch.Left(); [3]int{p, r, z} != most {
		t.Fatalf("a rewound count is %d plans, %d segments, %d entries, the largest build %v", p, r, z, most)
	}
}
