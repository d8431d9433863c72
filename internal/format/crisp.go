package format

import (
	"fmt"
	"slices"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// CRISPFormat is the paper's hybrid encoding: Blocked-ELLPACK block-column
// indices for the coarse structure plus, inside every kept block, exactly N
// value slots per group of M columns, each tagged with a ⌈log2 M⌉-bit
// intra-group offset. Groups with fewer than N survivors pad with
// (offset 0, value 0) slots — the rigid layout the activation-select
// multiplexers in CRISP-STC consume directly.
type CRISPFormat struct {
	Rows, Cols, B int
	NM            sparsity.NM
	KeptPerRow    int
	// BlockCols lists kept block columns per block row (gridRows × KeptPerRow).
	BlockCols []int32
	// Offsets holds one intra-group offset per stored slot.
	Offsets []uint8
	// Val holds the slot values in the same order.
	Val []float64
}

// EncodeCRISP encodes m, which must satisfy both hybrid invariants: uniform
// kept blocks per block row, and the N:M pattern within rows. M must divide
// B so N:M groups never straddle blocks.
func EncodeCRISP(m *tensor.Tensor, b int, nm sparsity.NM) (*CRISPFormat, error) {
	e := &CRISPFormat{}
	if err := e.Encode(m, b, nm); err != nil {
		return nil, err
	}
	return e, nil
}

// Encode is EncodeCRISP into e, overwriting what e held and reusing its
// slices' capacity, so one value can encode a model's parameters one after
// another (Compile copies out of it; nothing compiled aliases e). After an
// error e's contents are unspecified.
func (e *CRISPFormat) Encode(m *tensor.Tensor, b int, nm sparsity.NM) error {
	if err := nm.Validate(); err != nil {
		return err
	}
	if b%nm.M != 0 {
		return fmt.Errorf("format: block size %d is not a multiple of M=%d", b, nm.M)
	}
	rows, cols := checkMatrix(m)
	if err := sparsity.VerifyNM(m, nm); err != nil {
		return fmt.Errorf("format: matrix violates %s: %w", nm, err)
	}
	g := sparsity.NewBlockGrid(rows, cols, b)
	kept := 0
	if g.GridRows() > 0 {
		for bc := 0; bc < g.GridCols(); bc++ {
			if sparsity.BlockKept(m, g, 0, bc) {
				kept++
			}
		}
	}
	// Sized once: every block row keeps `kept` blocks of at most b rows ×
	// b/M groups × N slots (edge blocks are smaller, so this is a capacity).
	blocks := g.GridRows() * kept
	slots := blocks * b * (b / nm.M) * nm.N
	*e = CRISPFormat{
		Rows: rows, Cols: cols, B: b, NM: nm, KeptPerRow: kept,
		BlockCols: slices.Grow(e.BlockCols[:0], blocks),
		Offsets:   slices.Grow(e.Offsets[:0], slots),
		Val:       slices.Grow(e.Val[:0], slots),
	}
	for br := 0; br < g.GridRows(); br++ {
		rowStart := len(e.BlockCols)
		for bc := 0; bc < g.GridCols(); bc++ {
			if !sparsity.BlockKept(m, g, br, bc) {
				continue
			}
			e.BlockCols = append(e.BlockCols, int32(bc))
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				for g0 := c0; g0 < c1; g0 += nm.M {
					g1 := g0 + nm.M
					if g1 > c1 {
						g1 = c1
					}
					stored := 0
					for cc := g0; cc < g1 && stored < nm.N; cc++ {
						if v := m.Data[r*cols+cc]; v != 0 {
							e.Offsets = append(e.Offsets, uint8(cc-g0))
							e.Val = append(e.Val, v)
							stored++
						}
					}
					for ; stored < nm.N; stored++ {
						e.Offsets = append(e.Offsets, 0)
						e.Val = append(e.Val, 0)
					}
				}
			}
		}
		if c := len(e.BlockCols) - rowStart; c != kept {
			return fmt.Errorf("format: crisp requires row balance; block row %d keeps %d, row 0 keeps %d", br, c, kept)
		}
	}
	return nil
}

// Name implements Encoded.
func (e *CRISPFormat) Name() string { return "crisp" }

// grid reconstructs the block grid.
func (e *CRISPFormat) grid() sparsity.BlockGrid {
	return sparsity.NewBlockGrid(e.Rows, e.Cols, e.B)
}

// MetadataBits implements Encoded: block indices + per-slot offsets.
func (e *CRISPFormat) MetadataBits() int64 {
	g := e.grid()
	blockBits := BlockedELLMetadataBits(g.GridRows(), g.GridCols(), e.KeptPerRow)
	return blockBits + int64(len(e.Offsets))*int64(bitsFor(e.NM.M))
}

// DataBits implements Encoded: every slot (including padding) carries a
// value, as in the hardware layout.
func (e *CRISPFormat) DataBits(valueBits int) int64 {
	return int64(len(e.Val)) * int64(valueBits)
}

// Decode implements Encoded.
func (e *CRISPFormat) Decode() *tensor.Tensor {
	out := tensor.New(e.Rows, e.Cols)
	g := e.grid()
	si := 0
	for br := 0; br < g.GridRows(); br++ {
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				for g0 := c0; g0 < c1; g0 += e.NM.M {
					for s := 0; s < e.NM.N; s++ {
						// Padding slots add zero; real slots write their value.
						out.Data[r*e.Cols+g0+int(e.Offsets[si])] += e.Val[si]
						si++
					}
				}
			}
		}
	}
	return out
}

// slotStarts returns the index into Val/Offsets where each block row's
// slots begin (length gridRows+1), so MatMul can give each worker an
// independent starting slot. Slot counts follow from the grid geometry
// alone.
func (e *CRISPFormat) slotStarts(g sparsity.BlockGrid) []int {
	starts := make([]int, g.GridRows()+1)
	for br := 0; br < g.GridRows(); br++ {
		slots := 0
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			groups := ((c1 - c0) + e.NM.M - 1) / e.NM.M
			slots += (r1 - r0) * groups * e.NM.N
		}
		starts[br+1] = starts[br] + slots
	}
	return starts
}

// MatMul implements Encoded: the software analogue of the accelerator's
// offset-driven activation selection. Block rows are independent, so large
// problems (batched inference) fan out across GOMAXPROCS workers with
// bit-identical results.
func (e *CRISPFormat) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, e.Cols)
	out := tensor.New(e.Rows, n)
	g := e.grid()
	crispJobs.Run(g.GridRows(), len(e.Val)*n, crispJob{e: e, g: g, starts: e.slotStarts(g), b: b.Data, out: out.Data, n: n})
	return out
}

// crispJob is CRISPFormat.MatMul's fan-out record; its rows are block rows.
type crispJob struct {
	tensor.Join
	e      *CRISPFormat
	g      sparsity.BlockGrid
	starts []int
	b, out []float64
	n      int
}

var crispJobs tensor.JobPool[crispJob, *crispJob]

// Rows implements tensor.RowJob: it computes block rows [br0, br1).
func (j *crispJob) Rows(br0, br1 int) {
	e, g, n := j.e, j.g, j.n
	for br := br0; br < br1; br++ {
		si := j.starts[br]
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				dst := j.out[r*n : (r+1)*n]
				for g0 := c0; g0 < c1; g0 += e.NM.M {
					for s := 0; s < e.NM.N; s++ {
						v := e.Val[si]
						col := g0 + int(e.Offsets[si])
						si++
						if v == 0 {
							continue
						}
						src := j.b[col*n : (col+1)*n]
						for x, bv := range src {
							dst[x] += v * bv
						}
					}
				}
			}
		}
	}
}

// CRISPMetadataBits is the analytical model for a rows×cols matrix with
// uniform keptPerRow blocks of size b and an N:M pattern inside kept blocks.
func CRISPMetadataBits(rows, cols, b, keptPerRow int, nm sparsity.NM) int64 {
	g := sparsity.NewBlockGrid(rows, cols, b)
	blockBits := BlockedELLMetadataBits(g.GridRows(), g.GridCols(), keptPerRow)
	// Slots: per kept block, B rows × (B/M) groups × N slots.
	slots := int64(g.GridRows()) * int64(keptPerRow) * int64(b) * int64(b/nm.M) * int64(nm.N)
	return blockBits + slots*int64(bitsFor(nm.M))
}
