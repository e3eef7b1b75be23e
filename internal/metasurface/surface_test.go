package metasurface

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/llama-surface/llama/internal/jones"
	"github.com/llama-surface/llama/internal/units"
)

var biasGrid = []float64{2, 3, 4, 5, 6, 10, 15} // Table 1 grid

func optimized(t *testing.T) *Surface {
	t.Helper()
	s, err := New(OptimizedFR4Design(units.DefaultCarrierHz))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrefabDesignsValidate(t *testing.T) {
	for _, d := range []Design{
		OptimizedFR4Design(units.DefaultCarrierHz),
		NaiveFR4Design(units.DefaultCarrierHz),
		Rogers5880Design(units.DefaultCarrierHz),
		OptimizedFR4Design(units.RFIDBandCenter),
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestValidateRejectsBadDesigns(t *testing.T) {
	base := OptimizedFR4Design(units.DefaultCarrierHz)
	mutations := []func(*Design){
		func(d *Design) { d.CenterHz = 0 },
		func(d *Design) { d.PatternIndex = 0.5 },
		func(d *Design) { d.QWPLayerThickness = 0 },
		func(d *Design) { d.QWPPath = 0 },
		func(d *Design) { d.QWPConcentration = 0.5 },
		func(d *Design) { d.QWPMismatch = 0.9 },
		func(d *Design) { d.QWPSelectivity = -1 },
		func(d *Design) { d.BFSLayers = 0 },
		func(d *Design) { d.BFSLayerThickness = 0 },
		func(d *Design) { d.BFSPath = 0 },
		func(d *Design) { d.BFSConcentration = 0 },
		func(d *Design) { d.LoadPitch = 0 },
		func(d *Design) { d.BFSSelectivity = -0.1 },
		func(d *Design) { d.BFSSelectivity = 1; d.BFSResonanceBias = 0 },
		func(d *Design) { d.UnitsX = 0 },
		func(d *Design) { d.UnitSize = 0 },
		func(d *Design) { d.VaractorsPerUnit = 0 },
		func(d *Design) { d.MinBiasV = 10; d.MaxBiasV = 5 },
		func(d *Design) { d.Substrate.EpsilonR = 0.2 },
		func(d *Design) { d.Diode.C0 = 0 },
	}
	for i, mut := range mutations {
		d := base
		mut(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("mutation %d: invalid design accepted", i)
		}
		if _, err := New(d); err == nil {
			t.Errorf("mutation %d: New accepted invalid design", i)
		}
	}
}

// TestValidateRejectsNonFinite sets every float64 field of a design,
// its substrate and its diode — found by reflection, so a field added
// later is covered too — to NaN and ±Inf in turn. The range checks in
// Validate are comparisons NaN slips through, so each must be caught by
// the finiteness check instead.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := OptimizedFR4Design(units.DefaultCarrierHz)
	var fields []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(prefix+f.Name+".", f.Type)
			case reflect.Float64:
				fields = append(fields, prefix+f.Name)
			}
		}
	}
	walk("", reflect.TypeOf(base))
	if len(fields) != len(base.numericFields()) {
		t.Errorf("Design has %d float64 fields, numericFields lists %d", len(fields), len(base.numericFields()))
	}
	for _, field := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%g", field, bad), func(t *testing.T) {
				d := base
				v := reflect.ValueOf(&d).Elem()
				for _, name := range strings.Split(field, ".") {
					v = v.FieldByName(name)
				}
				v.SetFloat(bad)
				if err := d.Validate(); err == nil {
					t.Fatal("non-finite field accepted")
				}
				if _, err := New(d); err == nil {
					t.Fatal("New accepted a non-finite field")
				}
			})
		}
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid design")
		}
	}()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	d.BFSLayers = 0
	MustNew(d)
}

func TestPrototypeGeometryMatchesPaper(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	// §4: 180 functional units, 720 varactors, ~480×480 mm.
	if d.Units() != 180 {
		t.Errorf("units = %d, want 180", d.Units())
	}
	if d.VaractorCount() != 720 {
		t.Errorf("varactors = %d, want 720", d.VaractorCount())
	}
	side := math.Sqrt(d.Area())
	if side < 0.40 || side > 0.56 {
		t.Errorf("surface side = %v m, want ≈0.48", side)
	}
}

func TestBillOfMaterialsMatchesPaperScale(t *testing.T) {
	// §4: total prototype ≈ $900, ≈$5 per unit.
	bom := OptimizedFR4Design(units.DefaultCarrierHz).BillOfMaterials()
	if bom.Total() < 500 || bom.Total() > 1400 {
		t.Errorf("BoM total = $%.0f, want ≈$900", bom.Total())
	}
	per := bom.PerUnit(180)
	if per < 3 || per > 8 {
		t.Errorf("per-unit = $%.2f, want ≈$5", per)
	}
	// Rogers build must be dramatically more expensive (the paper's
	// cost argument).
	rog := Rogers5880Design(units.DefaultCarrierHz).BillOfMaterials()
	if rog.PCB < 5*bom.PCB {
		t.Errorf("Rogers PCB $%.0f should dwarf FR4 $%.0f", rog.PCB, bom.PCB)
	}
}

func TestSubstrateOrderingFigs8to10(t *testing.T) {
	// Fig. 8 vs 9 vs 10: Rogers good, naive FR4 terrible, optimized FR4
	// comparable to Rogers.
	f0 := units.DefaultCarrierHz
	rog := MustNew(Rogers5880Design(f0))
	naive := MustNew(NaiveFR4Design(f0))
	opt := MustNew(OptimizedFR4Design(f0))
	for _, s := range []*Surface{rog, naive, opt} {
		s.SetBias(8, 8)
	}
	eRog := rog.EfficiencyDB(AxisX, f0)
	eNaive := naive.EfficiencyDB(AxisX, f0)
	eOpt := opt.EfficiencyDB(AxisX, f0)
	if eRog < -4 {
		t.Errorf("Rogers efficiency %v dB, want ≥ -4 (Fig. 8)", eRog)
	}
	if eNaive > -15 {
		t.Errorf("naive FR4 efficiency %v dB, want ≤ -15 (Fig. 9)", eNaive)
	}
	if math.Abs(eOpt-eRog) > 3 {
		t.Errorf("optimized FR4 (%v dB) should be comparable to Rogers (%v dB) (Fig. 10)", eOpt, eRog)
	}
	if !(eOpt > eNaive+8) {
		t.Errorf("optimization should recover ≥8 dB over naive FR4: %v vs %v", eOpt, eNaive)
	}
}

func TestBandPassRolloff(t *testing.T) {
	// Figs. 8/10: efficiency rolls off away from the ISM band.
	s := optimized(t)
	s.SetBias(8, 8)
	center := s.EfficiencyDB(AxisX, units.DefaultCarrierHz)
	low := s.EfficiencyDB(AxisX, 2.0e9)
	high := s.EfficiencyDB(AxisX, 2.8e9)
	if !(center > low+5) || !(center > high+5) {
		t.Errorf("no band-pass shape: center %v, edges %v / %v", center, low, high)
	}
}

func TestBandwidthClaimFig10(t *testing.T) {
	// §3.2: two-layer design achieves ≥150 MHz with efficiency > −5 dB.
	s := optimized(t)
	s.SetBias(8, 8)
	bw := s.BandwidthAboveDB(-5, 2.0e9, 2.9e9, 5e6)
	if bw < 150e6 {
		t.Errorf("-5 dB bandwidth = %.0f MHz, want ≥ 150", bw/1e6)
	}
	// And it must cover the ISM band comfortably at nominal bias.
	if bw < 100e6 {
		t.Errorf("bandwidth below ISM band width")
	}
}

func TestBandwidthPanicsOnBadRange(t *testing.T) {
	s := optimized(t)
	defer func() {
		if recover() == nil {
			t.Error("bad scan range should panic")
		}
	}()
	s.BandwidthAboveDB(-5, 2.9e9, 2.0e9, 5e6)
}

func TestEfficiencyUnderBiasFig11(t *testing.T) {
	// Fig. 11: in 2.4–2.5 GHz, efficiency stays above about −8 dB for
	// all bias combinations in the 2–15 V control range, and low bias
	// (detuned tank) is lossier than nominal.
	s := optimized(t)
	worst := 0.0
	for _, vy := range biasGrid {
		s.SetBias(8, vy)
		for f := 2.40e9; f <= 2.50e9; f += 0.02e9 {
			eff := s.EfficiencyDB(AxisY, f)
			if eff < worst {
				worst = eff
			}
		}
	}
	if worst < -10 {
		t.Errorf("worst in-band efficiency = %v dB, want ≥ -10 (Fig. 11 shows ≥ -8)", worst)
	}
	s.SetBias(8, 2)
	lowBias := s.EfficiencyDB(AxisY, units.DefaultCarrierHz)
	s.SetBias(8, 8)
	nominal := s.EfficiencyDB(AxisY, units.DefaultCarrierHz)
	if !(nominal > lowBias) {
		t.Errorf("low bias should be lossier: nominal %v vs low %v", nominal, lowBias)
	}
}

func TestTable1RotationShape(t *testing.T) {
	s := optimized(t)
	f0 := units.DefaultCarrierHz
	var all []float64
	min, max := math.Inf(1), 0.0
	for _, vy := range biasGrid {
		for _, vx := range biasGrid {
			s.SetBias(vx, vy)
			r := s.RotationDegrees(f0)
			all = append(all, r)
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
	}
	// Table 1 spans 1.9°–48.7°.
	if min > 3 {
		t.Errorf("min rotation = %v°, want ≤ 3 (Table 1: 1.9°)", min)
	}
	if max < 40 || max > 62 {
		t.Errorf("max rotation = %v°, want ≈49 (Table 1: 48.7°)", max)
	}
	_ = all
}

func TestTable1CornerAndDiagonal(t *testing.T) {
	s := optimized(t)
	f0 := units.DefaultCarrierHz
	// Corner (Vx=2, Vy=15) is the largest differential: ≈48°.
	s.SetBias(2, 15)
	corner := s.RotationDegrees(f0)
	if corner < 40 {
		t.Errorf("corner rotation = %v°, want ≥ 40", corner)
	}
	// Diagonal is small but nonzero at low bias (fabrication asymmetry)
	// and shrinks at high bias — Table 1: 11.6° at (2,2) → 2.0° at (15,15).
	s.SetBias(2, 2)
	lowDiag := s.RotationDegrees(f0)
	s.SetBias(15, 15)
	highDiag := s.RotationDegrees(f0)
	if lowDiag < 4 || lowDiag > 25 {
		t.Errorf("diag(2,2) = %v°, want ≈12", lowDiag)
	}
	if highDiag > 5 {
		t.Errorf("diag(15,15) = %v°, want ≈2", highDiag)
	}
	if !(lowDiag > highDiag) {
		t.Error("diagonal should shrink with bias")
	}
}

func TestRotationRowMonotoneFig15Style(t *testing.T) {
	// Along the Vy=15 column (Vx rising 2→15), rotation falls: the
	// differential phase shrinks as the axes approach each other.
	s := optimized(t)
	f0 := units.DefaultCarrierHz
	prev := math.Inf(1)
	for _, vx := range biasGrid {
		s.SetBias(vx, 15)
		r := s.RotationDegrees(f0)
		if r >= prev {
			t.Errorf("rotation not decreasing along Vx at Vy=15: %v° after %v°", r, prev)
		}
		prev = r
	}
}

func TestRotationEqualsHalfDifferentialPhase(t *testing.T) {
	// Eq. 8: θr = δ/2. The circuit QWPs are slightly lossy/imbalanced,
	// so allow a few degrees of slack.
	s := optimized(t)
	f0 := units.DefaultCarrierHz
	for _, vy := range biasGrid {
		s.SetBias(8, vy)
		rot := s.RotationDegrees(f0)
		want := math.Abs(units.Degrees(s.DifferentialPhase(f0))) / 2
		if math.Abs(rot-want) > 5 {
			t.Errorf("Vy=%v: rotation %v° vs δ/2 = %v°", vy, rot, want)
		}
	}
}

func TestJonesTransmissivePassive(t *testing.T) {
	// The surface is passive: no polarization state may gain power, at
	// any frequency or bias.
	s := optimized(t)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		f := 2.0e9 + r.Float64()*0.8e9
		s.SetBias(r.Float64()*30, r.Float64()*30)
		m := s.JonesTransmissive(f)
		in := jones.LinearAt(r.Float64() * math.Pi)
		if p := m.MulVec(in).NormSq(); p > 1.0+1e-9 {
			t.Fatalf("active transmissive surface: power %v at f=%v", p, f)
		}
	}
}

func TestJonesReflectivePassive(t *testing.T) {
	s := optimized(t)
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		f := 2.3e9 + r.Float64()*0.3e9
		s.SetBias(r.Float64()*30, r.Float64()*30)
		m := s.JonesReflective(f)
		in := jones.LinearAt(r.Float64() * math.Pi)
		if p := m.MulVec(in).NormSq(); p > 1.0+1e-6 {
			t.Fatalf("active reflective surface: power %v at f=%v", p, f)
		}
	}
}

func TestReflectiveCrossPolDominant(t *testing.T) {
	// The stack round trip behaves as a 90° flip (QWP–mirror–QWP): a
	// V-polarized wave reflects mostly H-polarized. This is what rescues
	// the mismatched same-side link (§5.2).
	s := optimized(t)
	s.SetBias(8, 8)
	m := s.JonesReflective(units.DefaultCarrierHz)
	v := jones.Vertical()
	cross := jones.PLF(m.MulVec(v), jones.Horizontal()) * m.MulVec(v).NormSq()
	co := jones.PLF(m.MulVec(v), jones.Vertical()) * m.MulVec(v).NormSq()
	if !(cross > co) {
		t.Errorf("reflective surface should cross-polarize: cross %v vs co %v", cross, co)
	}
}

func TestReflectiveBiasRangeSmallerThanTransmissive(t *testing.T) {
	// Fig. 21 vs Fig. 15: the bias sweep changes reflective power much
	// less than transmissive power ("the rotation will be cancelled
	// after the signal is reflected").
	s := optimized(t)
	f0 := units.DefaultCarrierHz
	rangeOf := func(mode Mode) float64 {
		min, max := math.Inf(1), math.Inf(-1)
		for _, vy := range biasGrid {
			for _, vx := range biasGrid {
				s.SetBias(vx, vy)
				m := s.Jones(mode, f0)
				// Mismatched link: V-pol Tx, H-pol Rx.
				e := m.MulVec(jones.Vertical())
				p := real(e.X)*real(e.X) + imag(e.X)*imag(e.X)
				if p < min {
					min = p
				}
				if p > max {
					max = p
				}
			}
		}
		if min <= 0 {
			min = 1e-12
		}
		return units.LinearToDB(max / min)
	}
	trans := rangeOf(Transmissive)
	refl := rangeOf(Reflective)
	if !(trans > refl) {
		t.Errorf("bias dynamic range: transmissive %v dB should exceed reflective %v dB", trans, refl)
	}
	if trans < 10 {
		t.Errorf("transmissive bias range = %v dB, want > 10 (Fig. 15 heatmaps)", trans)
	}
}

func TestSetBiasClamps(t *testing.T) {
	s := optimized(t)
	s.SetBias(-5, 99)
	vx, vy := s.Bias()
	if vx != 0 || vy != 30 {
		t.Errorf("bias = (%v, %v), want clamped (0, 30)", vx, vy)
	}
}

func Test900MHzRescale(t *testing.T) {
	// §3.2: comparable performance after scaling to the 900 MHz band.
	s := MustNew(OptimizedFR4Design(units.RFIDBandCenter))
	s.SetBias(8, 8)
	eff := s.EfficiencyDB(AxisX, units.RFIDBandCenter)
	if eff < -6 {
		t.Errorf("900 MHz efficiency = %v dB, want ≥ -6", eff)
	}
	s.SetBias(2, 15)
	rot := s.RotationDegrees(units.RFIDBandCenter)
	if rot < 30 {
		t.Errorf("900 MHz max rotation = %v°, want ≥ 30", rot)
	}
}

func TestCalibrateLoadPitchMonotone(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	small := d.CalibrateLoadPitch(units.Radians(50), 0.9, 15)
	large := d.CalibrateLoadPitch(units.Radians(120), 0.9, 15)
	// A bigger phase-swing target needs heavier loading → smaller pitch.
	if !(large < small) {
		t.Errorf("pitch should shrink with target: %v vs %v", large, small)
	}
}

func TestCalibrateLoadPitchPanics(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	target := units.Radians(97)
	for _, c := range []struct {
		name             string
		target, vLo, vHi float64
	}{
		{"zero target", 0, 2, 15},
		{"negative target", -1, 2, 15},
		{"NaN target", math.NaN(), 2, 15},
		{"+Inf target", math.Inf(1), 2, 15},
		{"NaN vLo", target, math.NaN(), 15},
		{"NaN vHi", target, 2, math.NaN()},
		{"-Inf vLo", target, math.Inf(-1), 15},
		{"+Inf vHi", target, 2, math.Inf(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("calibration should panic")
				}
			}()
			d.CalibrateLoadPitch(c.target, c.vLo, c.vHi)
		})
	}
}

func TestEffectiveMinBias(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	if got := d.effectiveMinBias(2); math.Abs(got-(2-d.BiasOffsetX)) > 1e-12 {
		t.Errorf("effectiveMinBias(2) = %v", got)
	}
	if got := d.effectiveMinBias(0.5); got != 0 {
		t.Errorf("effectiveMinBias(0.5) = %v, want clamp to 0", got)
	}
}

func TestStringers(t *testing.T) {
	if AxisX.String() != "X" || AxisY.String() != "Y" {
		t.Error("axis strings")
	}
	if Transmissive.String() != "transmissive" || Reflective.String() != "reflective" {
		t.Error("mode strings")
	}
	s := optimized(t)
	if s.String() == "" {
		t.Error("surface string")
	}
}

func TestInsertionLossPositive(t *testing.T) {
	s := optimized(t)
	s.SetBias(8, 8)
	il := s.InsertionLossDB(units.DefaultCarrierHz)
	if il <= 0 || il > 8 {
		t.Errorf("insertion loss = %v dB, want (0, 8]", il)
	}
}

func TestReciprocityOfAxisNetworks(t *testing.T) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	for _, v := range biasGrid {
		net := d.bfsAxisNetwork(units.DefaultCarrierHz, AxisY, v)
		if !net.IsReciprocal(1e-6) {
			t.Errorf("BFS network not reciprocal at %v V", v)
		}
	}
}

func TestJonesModeDispatch(t *testing.T) {
	s := optimized(t)
	f0 := units.DefaultCarrierHz
	if !s.Jones(Transmissive, f0).ApproxEqual(s.JonesTransmissive(f0), 0) {
		t.Error("Jones(Transmissive) mismatch")
	}
	if !s.Jones(Reflective, f0).ApproxEqual(s.JonesReflective(f0), 0) {
		t.Error("Jones(Reflective) mismatch")
	}
}
