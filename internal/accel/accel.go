// Package accel is a first-order, tile-level performance and energy
// simulator for the four architectures of the CRISP paper's Fig. 8: a dense
// edge accelerator, NVIDIA's Sparse Tensor Core (weight 2:4 only), the
// Dual-side Sparse Tensor Core (weight + activation sparsity with gather
// machinery), and CRISP-STC (hybrid block + N:M with offset-driven
// activation selection).
//
// The model deliberately captures only the first-order effects the paper
// attributes its results to — see doc.go for the cost equations — and is
// calibrated to reproduce relative behaviour (who wins, by roughly what
// factor, where crossovers fall), not absolute cycle counts of any silicon.
package accel

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/sparsity"
)

// HW holds the architecture-independent hardware budget (the paper's
// edge-centric SMEM-RF-Compute topology).
type HW struct {
	// MACsPerCycle is the total MAC throughput (4 tensor cores × 64 MACs).
	MACsPerCycle int
	// SMEMBytes is the shared-memory capacity (256 KB).
	SMEMBytes int
	// SMEMBytesPerCycle is the on-chip bandwidth into the compute fabric.
	SMEMBytesPerCycle float64
	// DRAMBytesPerCycle is the off-chip bandwidth (edge LPDDR-class).
	DRAMBytesPerCycle float64
	// WeightBytes / ActBytes / PsumBytes are operand widths (int8 weights
	// and activations, 32-bit partial sums).
	WeightBytes, ActBytes, PsumBytes float64
	// StartupCycles is the fixed pipeline fill/drain cost per layer.
	StartupCycles float64
	// RFReuse is the register-file reuse factor: how many MACs each SMEM
	// byte feeds on average in a tiled dataflow.
	RFReuse float64
}

// EdgeHW returns the paper's CRISP-STC budget: 256 KB SMEM, four tensor
// cores of 64 MACs each, and a fraction of a discrete GPU's bandwidth.
func EdgeHW() HW {
	return HW{
		MACsPerCycle:      256,
		SMEMBytes:         256 * 1024,
		SMEMBytesPerCycle: 64,
		DRAMBytesPerCycle: 16,
		WeightBytes:       1,
		ActBytes:          1,
		PsumBytes:         4,
		StartupCycles:     2000,
		RFReuse:           16,
	}
}

// Sparsity describes the weight (and optionally activation) sparsity a
// layer runs with.
type Sparsity struct {
	// NM is the fine-grained pattern; the zero value means no N:M sparsity.
	NM sparsity.NM
	// KeptColFrac is K'/K, the fraction of block columns kept (1 = no block
	// pruning).
	KeptColFrac float64
	// BlockSize is the B of the block grid CRISP-STC models; 0 means 64.
	BlockSize int
	// ActDensity is the activation non-zero fraction (used by DSTC; the
	// paper reserves 40% activation sparsity → density 0.6).
	ActDensity float64
}

// Dense returns a no-sparsity descriptor.
func Dense() Sparsity { return Sparsity{KeptColFrac: 1, ActDensity: 1} }

// WeightDensity returns the kept weight fraction (K'/K)·(N/M).
func (s Sparsity) WeightDensity() float64 {
	d := s.KeptColFrac
	if d == 0 {
		d = 1
	}
	if s.NM.M > 0 {
		d *= s.NM.Density()
	}
	return d
}

// Validate rejects descriptors the simulator cannot interpret.
func (s Sparsity) Validate() error {
	switch {
	case s.KeptColFrac < 0 || s.KeptColFrac > 1:
		return fmt.Errorf("accel: KeptColFrac %v outside [0,1]", s.KeptColFrac)
	case s.ActDensity < 0 || s.ActDensity > 1:
		return fmt.Errorf("accel: ActDensity %v outside [0,1]", s.ActDensity)
	case s.BlockSize < 0:
		return fmt.Errorf("accel: BlockSize %d is negative", s.BlockSize)
	case s.NM.M != 0:
		return s.NM.Validate()
	}
	return nil
}

// Perf is the simulated outcome for one layer.
type Perf struct {
	Arch string
	// Cycles is the modeled latency.
	Cycles float64
	// ComputeCycles / MemoryCycles / OverheadCycles expose the bound terms.
	ComputeCycles, MemoryCycles, OverheadCycles float64
	// MACs is the effective multiply-accumulate count.
	MACs float64
	// DRAMBytes is the off-chip traffic.
	DRAMBytes float64
	// Energy itemizes the energy estimate.
	Energy energy.Breakdown
}

// EnergyUJ is the total energy in microjoules.
func (p Perf) EnergyUJ() float64 { return p.Energy.TotalUJ() }

// Arch is a simulated accelerator architecture.
type Arch interface {
	// Name identifies the architecture.
	Name() string
	// Simulate models one layer under the given sparsity.
	Simulate(l models.LayerShape, sp Sparsity) Perf
}

// maxOf3 returns the largest of three values.
func maxOf3(a, b, c float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}
