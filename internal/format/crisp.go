package format

import (
	"fmt"

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
	if err := nm.Validate(); err != nil {
		return nil, err
	}
	if b%nm.M != 0 {
		return nil, fmt.Errorf("format: block size %d is not a multiple of M=%d", b, nm.M)
	}
	rows, cols := checkMatrix(m)
	if err := sparsity.VerifyNM(m, nm); err != nil {
		return nil, fmt.Errorf("format: matrix violates %s: %w", nm, err)
	}
	g := sparsity.NewBlockGrid(rows, cols, b)
	kept, blocks, slots := crispSize(m, g, nm)
	e := &CRISPFormat{
		Rows: rows, Cols: cols, B: b, NM: nm, KeptPerRow: kept,
		BlockCols: make([]int32, 0, blocks),
		Offsets:   make([]uint8, 0, slots),
		Val:       make([]float64, 0, slots),
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
			return nil, fmt.Errorf("format: crisp requires row balance; block row %d keeps %d, row 0 keeps %d", br, c, kept)
		}
	}
	return e, nil
}

// crispSize is EncodeCRISP's sizing: the blocks block row 0 keeps, which every
// block row must keep, and so the block columns and slots the encoding
// holds. Every block row keeps `kept` blocks of at most b rows × b/M groups
// × N slots (edge blocks are smaller, so slots is a capacity).
func crispSize(m *tensor.Tensor, g sparsity.BlockGrid, nm sparsity.NM) (kept, blocks, slots int) {
	if g.GridRows() > 0 {
		for bc := 0; bc < g.GridCols(); bc++ {
			if sparsity.BlockKept(m, g, 0, bc) {
				kept++
			}
		}
	}
	blocks = g.GridRows() * kept
	return kept, blocks, blocks * g.B * (g.B / nm.M) * nm.N
}

// Name identifies the format.
func (e *CRISPFormat) Name() string { return "crisp" }

// grid reconstructs the block grid.
func (e *CRISPFormat) grid() sparsity.BlockGrid {
	return sparsity.NewBlockGrid(e.Rows, e.Cols, e.B)
}

// MetadataBits is the index overhead in bits: block indices + per-slot
// offsets.
func (e *CRISPFormat) MetadataBits() int64 {
	g := e.grid()
	blockBits := BlockedELLMetadataBits(g.GridRows(), g.GridCols(), e.KeptPerRow)
	return blockBits + int64(len(e.Offsets))*int64(bitsFor(e.NM.M))
}

// DataBits is the value payload in bits: every slot (including padding)
// carries a value, as in the hardware layout.
func (e *CRISPFormat) DataBits(valueBits int) int64 {
	return int64(len(e.Val)) * int64(valueBits)
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

// BlockedELLMetadataBits is the analytical model: one ⌈log2 gridCols⌉-bit
// index per kept block.
func BlockedELLMetadataBits(gridRows, gridCols, keptPerRow int) int64 {
	return int64(gridRows) * int64(keptPerRow) * int64(bitsFor(gridCols))
}
