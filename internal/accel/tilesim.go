package accel

import (
	"fmt"
	"math"

	"repro/internal/models"
)

// This file contains the discrete-event tile simulator: where the
// closed-form models in archs.go bound each layer by max(compute, memory),
// TileSim walks the actual tile schedule of a double-buffered
// weight-stationary dataflow — weight/activation tiles stream DRAM→SMEM
// while the compute fabric consumes the previously loaded tile — and
// reports the resulting timeline, the overlap efficiency, and per-resource
// busy fractions. It refines, and is validated against, the closed-form
// model (tilesim_test.go asserts agreement within a small factor).

// TileEvent records one tile's lifetime in cycles.
type TileEvent struct {
	// Index is the tile's sequence number.
	Index int
	// LoadStart/LoadEnd bound the DRAM→SMEM transfer.
	LoadStart, LoadEnd float64
	// ComputeStart/ComputeEnd bound the MAC phase.
	ComputeStart, ComputeEnd float64
	// Bytes is the tile's DRAM traffic; MACs its compute volume.
	Bytes, MACs float64
}

// TileTrace is the complete simulated timeline for one layer.
type TileTrace struct {
	Arch   string
	Layer  string
	Events []TileEvent
	// Cycles is the end-to-end latency (including pipeline drain).
	Cycles float64
	// ComputeBusy and MemBusy are busy-cycle fractions of the total.
	ComputeBusy, MemBusy float64
	// Tiles is the schedule length.
	Tiles int
}

// Utilization returns the compute-busy fraction (0..1).
func (t *TileTrace) Utilization() float64 { return t.ComputeBusy }

// String summarizes the trace.
func (t *TileTrace) String() string {
	return fmt.Sprintf("%s/%s: %d tiles, %.0f cycles, compute %.0f%% busy, memory %.0f%% busy",
		t.Arch, t.Layer, t.Tiles, t.Cycles, 100*t.ComputeBusy, 100*t.MemBusy)
}

// TileSim simulates the double-buffered schedule of a layer on either the
// dense architecture or CRISP-STC (arch "dense" or "crisp-stc").
//
// The GEMM (M×K×N) is tiled along M and K so one weight tile plus its
// activation slice fits half the SMEM (the other half holds the in-flight
// prefetch). Tile i+1's load starts as soon as tile i's load finishes
// (single prefetch buffer); tile i's compute starts when both its load and
// the previous compute are done.
func TileSim(hw HW, arch string, l models.LayerShape, sp Sparsity) (*TileTrace, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	m, k, n := l.GEMMDims()
	var (
		density float64
		actFrac float64
		util    float64
	)
	switch arch {
	case "dense":
		density, actFrac, util = 1, 1, 0.85
	case "crisp-stc":
		density = sp.WeightDensity()
		actFrac = sp.KeptColFrac
		if actFrac == 0 {
			actFrac = 1
		}
		util = 0.95
	default:
		return nil, fmt.Errorf("accel: TileSim supports dense or crisp-stc, not %q", arch)
	}

	// Tile sizing: square-ish K-tiles with full M rows per tile group; the
	// compressed weight tile + its activation slice must fit SMEM/2.
	budget := float64(hw.SMEMBytes) / 2
	tileM := 64
	if tileM > m {
		tileM = m
	}
	tileK := k
	sizeOf := func(tk int) float64 {
		w := float64(tileM) * float64(tk) * density * hw.WeightBytes
		a := float64(tk) * actFrac * float64(min(n, 512)) * hw.ActBytes
		return w + a
	}
	for tileK > 16 && sizeOf(tileK) > budget {
		tileK /= 2
	}

	mTiles := ceilDiv(m, tileM)
	kTiles := ceilDiv(k, tileK)
	total := mTiles * kTiles
	if total == 0 {
		return nil, fmt.Errorf("accel: degenerate tiling for %s", l.Name)
	}

	trace := &TileTrace{Arch: arch, Layer: l.Name, Tiles: total}
	macsPerTile := float64(tileM) * float64(tileK) * float64(n) * density
	computePerTile := macsPerTile / (float64(hw.MACsPerCycle) * util)
	bytesPerTile := sizeOf(tileK)
	loadPerTile := bytesPerTile / hw.DRAMBytesPerCycle

	events, end, computeBusy, memBusy := runSchedule(total, loadPerTile, computePerTile, bytesPerTile, macsPerTile)
	trace.Events = events
	// Output writeback of the final tile group plus pipeline drain.
	outCycles := float64(m*n) * hw.ActBytes / hw.DRAMBytesPerCycle
	trace.Cycles = end + outCycles + hw.StartupCycles
	trace.ComputeBusy = computeBusy / trace.Cycles
	trace.MemBusy = (memBusy + outCycles) / trace.Cycles
	return trace, nil
}

// runSchedule plays TileSim's double-buffered load/compute pipeline: tile
// i+1's load starts when tile i's load finishes (single prefetch buffer), tile
// i's compute starts when both its load and the previous compute are done.
// It returns the event timeline, the last compute-end time, and the summed
// busy cycles per resource.
func runSchedule(total int, loadPerTile, computePerTile, bytesPerTile, macsPerTile float64) (events []TileEvent, end, computeBusy, memBusy float64) {
	var prevLoadEnd, prevComputeEnd float64
	for i := 0; i < total; i++ {
		ev := TileEvent{Index: i, Bytes: bytesPerTile, MACs: macsPerTile}
		ev.LoadStart = prevLoadEnd
		ev.LoadEnd = ev.LoadStart + loadPerTile
		ev.ComputeStart = math.Max(ev.LoadEnd, prevComputeEnd)
		ev.ComputeEnd = ev.ComputeStart + computePerTile
		prevLoadEnd = ev.LoadEnd
		prevComputeEnd = ev.ComputeEnd
		computeBusy += computePerTile
		memBusy += loadPerTile
		events = append(events, ev)
	}
	return events, prevComputeEnd, computeBusy, memBusy
}

// ceilDiv is integer ceiling division.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
