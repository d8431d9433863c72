package accel

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/models"
	"repro/internal/sparsity"
)

func layerByName(t *testing.T, name string) models.LayerShape {
	t.Helper()
	for _, l := range models.ResNet50Shapes() {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("layer %s not found", name)
	return models.LayerShape{}
}

func archSet() (dense *DenseArch, stc *NvidiaSTCArch, dstc *DSTCArch, crisp *CRISPSTCArch) {
	hw := EdgeHW()
	e := energy.Default()
	return NewDense(hw, e), NewNvidiaSTC(hw, e), NewDSTC(hw, e), NewCRISPSTC(hw, e)
}

// crispSparsity returns the hybrid descriptor for a layer pruned to the
// given kept-column fraction at the given N:M and block size.
func crispSparsity(nm sparsity.NM, kept float64, b int) Sparsity {
	return Sparsity{NM: nm, KeptColFrac: kept, BlockSize: b, ActDensity: 1}
}

func TestDenseSimulatePositive(t *testing.T) {
	dense, _, _, _ := archSet()
	l := layerByName(t, "conv2_1.b")
	p := dense.Simulate(l, Dense())
	if p.Cycles <= 0 || p.EnergyUJ() <= 0 {
		t.Fatalf("non-positive perf: %+v", p)
	}
	if macs := l.Params() * int64(l.OutH()) * int64(l.OutW()); p.MACs != float64(macs) {
		t.Fatalf("dense MACs %v != layer MACs %v", p.MACs, macs)
	}
}

func TestSparsityValidate(t *testing.T) {
	if err := Dense().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Sparsity{KeptColFrac: 1.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid KeptColFrac accepted")
	}
	bad = Sparsity{KeptColFrac: 0.5, NM: sparsity.NM{N: 5, M: 4}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid NM accepted")
	}
	bad = Sparsity{KeptColFrac: 0.5, BlockSize: -4}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative BlockSize accepted")
	}
}

func TestWeightDensity(t *testing.T) {
	s := crispSparsity(sparsity.NM{N: 1, M: 4}, 0.4, 64)
	if d := s.WeightDensity(); d != 0.1 {
		t.Fatalf("weight density %v, want 0.1", d)
	}
	if d := Dense().WeightDensity(); d != 1 {
		t.Fatalf("dense weight density %v", d)
	}
}

func TestNvidiaSTCCappedAtTwoX(t *testing.T) {
	dense, stc, _, _ := archSet()
	for _, nm := range []sparsity.NM{{N: 1, M: 4}, {N: 2, M: 4}} {
		for _, name := range []string{"conv2_1.b", "conv4_2.b", "conv5_3.c"} {
			l := layerByName(t, name)
			d := dense.Simulate(l, Dense())
			s := stc.Simulate(l, crispSparsity(nm, 0.4, 64)) // STC ignores blocks
			speedup := d.Cycles / s.Cycles
			if speedup > 2.05 {
				t.Fatalf("STC speedup %v exceeds 2x on %s at %s", speedup, name, nm)
			}
			if speedup < 1.0 {
				t.Fatalf("STC slower than dense on %s: %v", name, speedup)
			}
		}
	}
}

func TestNvidiaSTC34FallsBackToDense(t *testing.T) {
	dense, stc, _, _ := archSet()
	l := layerByName(t, "conv4_2.b")
	d := dense.Simulate(l, Dense())
	s := stc.Simulate(l, crispSparsity(sparsity.NM{N: 3, M: 4}, 1, 64))
	if ratio := d.Cycles / s.Cycles; ratio > 1.1 {
		t.Fatalf("3:4 on STC should run ≈dense, got speedup %v", ratio)
	}
}

func TestNvidiaSTC14NoBetterThan24(t *testing.T) {
	_, stc, _, _ := archSet()
	l := layerByName(t, "conv4_2.b")
	p14 := stc.Simulate(l, crispSparsity(sparsity.NM{N: 1, M: 4}, 1, 64))
	p24 := stc.Simulate(l, crispSparsity(sparsity.NM{N: 2, M: 4}, 1, 64))
	if p14.Cycles < p24.Cycles*0.99 {
		t.Fatalf("1:4 (%v cycles) must not beat 2:4 (%v): STC pads to 2:4", p14.Cycles, p24.Cycles)
	}
}

func TestCRISPSpeedupBands(t *testing.T) {
	// Fig 8: ≈7–14× at 1:4, 5–12× at 2:4, 2–8× at 3:4 with 80–90% global
	// sparsity. We test representative layers with per-layer kept fractions
	// in the paper's range and assert generous bands.
	dense, _, _, crisp := archSet()
	cases := []struct {
		nm       sparsity.NM
		kept     float64
		loX, hiX float64
	}{
		{sparsity.NM{N: 1, M: 4}, 0.5, 5, 20},
		{sparsity.NM{N: 2, M: 4}, 0.3, 4, 16},
		{sparsity.NM{N: 3, M: 4}, 0.2, 2, 10},
	}
	for _, tc := range cases {
		for _, name := range []string{"conv2_1.b", "conv3_2.b", "conv4_2.b"} {
			l := layerByName(t, name)
			d := dense.Simulate(l, Dense())
			c := crisp.Simulate(l, crispSparsity(tc.nm, tc.kept, 64))
			speedup := d.Cycles / c.Cycles
			if speedup < tc.loX || speedup > tc.hiX {
				t.Fatalf("%s %s kept=%.2f: speedup %.2f outside [%v,%v]",
					name, tc.nm, tc.kept, speedup, tc.loX, tc.hiX)
			}
		}
	}
}

func TestCRISPBeatsSTCAndDense(t *testing.T) {
	dense, stc, dstcA, crisp := archSet()
	nm := sparsity.NM{N: 2, M: 4}
	for _, l := range models.RepresentativeResNet50Layers() {
		if l.Kind != models.KindConv {
			continue
		}
		sp := crispSparsity(nm, 0.3, 64)
		spDSTC := sp
		spDSTC.ActDensity = 0.6
		d := dense.Simulate(l, Dense())
		s := stc.Simulate(l, sp)
		ds := dstcA.Simulate(l, spDSTC)
		c := crisp.Simulate(l, sp)
		if c.Cycles >= s.Cycles {
			t.Fatalf("%s: CRISP (%v) not faster than STC (%v)", l.Name, c.Cycles, s.Cycles)
		}
		if c.Cycles >= d.Cycles {
			t.Fatalf("%s: CRISP (%v) not faster than dense (%v)", l.Name, c.Cycles, d.Cycles)
		}
		if c.Cycles >= ds.Cycles {
			t.Fatalf("%s: CRISP (%v) not faster than DSTC (%v)", l.Name, c.Cycles, ds.Cycles)
		}
	}
}

func TestDSTCEarlyVsLateLayers(t *testing.T) {
	// DSTC must do well on early layers (large N) and degrade on late
	// layers (small N) — the crossover the paper highlights.
	dense, _, dstcA, _ := archSet()
	sp := Sparsity{NM: sparsity.NM{N: 2, M: 4}, KeptColFrac: 0.3, BlockSize: 64, ActDensity: 0.6}
	early := layerByName(t, "conv2_1.b") // N = 56×56
	late := layerByName(t, "conv5_1.b")  // N = 7×7
	se := dense.Simulate(early, Dense()).Cycles / dstcA.Simulate(early, sp).Cycles
	sl := dense.Simulate(late, Dense()).Cycles / dstcA.Simulate(late, sp).Cycles
	if se < 3 {
		t.Fatalf("DSTC early-layer speedup %v, want ≥3", se)
	}
	if sl >= se {
		t.Fatalf("DSTC late-layer speedup %v should trail early %v", sl, se)
	}
	if sl > 4 {
		t.Fatalf("DSTC late-layer speedup %v, want <4 (data-movement bound)", sl)
	}
}

func TestBlock64BeatsBlock16(t *testing.T) {
	_, _, _, crisp := archSet()
	nm := sparsity.NM{N: 2, M: 4}
	for _, name := range []string{"conv3_2.b", "conv4_2.b"} {
		l := layerByName(t, name)
		c16 := crisp.Simulate(l, crispSparsity(nm, 0.3, 16))
		c64 := crisp.Simulate(l, crispSparsity(nm, 0.3, 64))
		if c64.Cycles > c16.Cycles {
			t.Fatalf("%s: B=64 (%v) slower than B=16 (%v)", name, c64.Cycles, c16.Cycles)
		}
		if c64.EnergyUJ() > c16.EnergyUJ() {
			t.Fatalf("%s: B=64 energy above B=16", name)
		}
	}
}

func TestCRISPEnergyEfficiencyBand(t *testing.T) {
	// Paper: up to 30× energy efficiency vs dense. At aggressive per-layer
	// sparsity the ratio should reach >10× and stay below ~60×.
	dense, _, _, crisp := archSet()
	l := layerByName(t, "conv4_2.b")
	d := dense.Simulate(l, Dense())
	c := crisp.Simulate(l, crispSparsity(sparsity.NM{N: 1, M: 4}, 0.1, 64))
	ratio := d.EnergyUJ() / c.EnergyUJ()
	if ratio < 10 || ratio > 60 {
		t.Fatalf("energy efficiency %v outside [10,60]", ratio)
	}
}

func TestMoreSparsityNeverSlower(t *testing.T) {
	_, _, _, crisp := archSet()
	l := layerByName(t, "conv4_2.b")
	nm := sparsity.NM{N: 2, M: 4}
	prev := crisp.Simulate(l, crispSparsity(nm, 1.0, 64)).Cycles
	for _, kept := range []float64{0.8, 0.6, 0.4, 0.2, 0.1} {
		cur := crisp.Simulate(l, crispSparsity(nm, kept, 64)).Cycles
		if cur > prev*1.0001 {
			t.Fatalf("kept=%v slower (%v) than previous (%v)", kept, cur, prev)
		}
		prev = cur
	}
}

func TestEnergyBreakdownComponentsPositive(t *testing.T) {
	dense, _, _, crisp := archSet()
	l := layerByName(t, "conv3_2.b")
	for _, p := range []Perf{
		dense.Simulate(l, Dense()),
		crisp.Simulate(l, crispSparsity(sparsity.NM{N: 2, M: 4}, 0.4, 32)),
	} {
		e := p.Energy
		if e.DRAM <= 0 || e.SMEM <= 0 || e.RF <= 0 || e.Compute <= 0 {
			t.Fatalf("%s: non-positive energy component %+v", p.Arch, e)
		}
	}
}

func TestLinearLayerSimulates(t *testing.T) {
	dense, _, _, crisp := archSet()
	fc := models.LayerShape{Name: "fc", Kind: models.KindLinear, InC: 2048, OutC: 1000, KH: 1, KW: 1, Stride: 1, InH: 1, InW: 1}
	d := dense.Simulate(fc, Dense())
	c := crisp.Simulate(fc, crispSparsity(sparsity.NM{N: 2, M: 4}, 0.5, 64))
	if d.Cycles <= 0 || c.Cycles <= 0 {
		t.Fatal("linear layer simulation failed")
	}
	if c.Cycles >= d.Cycles {
		t.Fatalf("sparse fc (%v) not faster than dense (%v)", c.Cycles, d.Cycles)
	}
}
