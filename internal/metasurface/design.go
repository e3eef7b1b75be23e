// Package metasurface implements the LLAMA programmable polarization
// rotator: the paper's primary contribution.
//
// The physical surface is a laminated PCB stack — two quarter-wave-plate
// (QWP) boards rotated ±45° sandwiching a tunable birefringent structure
// (BFS) whose X- and Y-axis transmission phases are set by varactor bias
// voltages (Fig. 6). In place of the paper's HFSS full-wave solver, each
// principal axis of each board is modelled as a synthetic transmission-line
// section (slow-wave loaded line) with:
//
//   - phase constant from the effective index (plus varactor loading for
//     the BFS axes, via the standard distributed-loading relation),
//   - attenuation from substrate dielectric loss scaled by a field
//     concentration factor, conductor loss, and varactor ESR,
//   - characteristic-impedance deviation from free space, producing the
//     Fabry–Pérot ripple visible in the paper's S21 plots.
//
// Cascading the per-axis ABCD matrices and converting to S-parameters
// (Eqs. 9–10) yields complex transmission coefficients Tx(f,Vx), Ty(f,Vy);
// the surface's Jones matrix is then Q₊₄₅·diag(Tx,Ty)·Q₋₄₅ (Eq. 8), from
// which the polarization rotation θr = δ/2 and the transmission
// efficiencies of Eq. 11 follow.
package metasurface

import (
	"fmt"
	"math"
	"sync"

	"github.com/llama-surface/llama/internal/materials"
	"github.com/llama-surface/llama/internal/units"
	"github.com/llama-surface/llama/internal/varactor"
)

// Axis selects one of the two principal axes of the birefringent layers.
type Axis int

// The two principal axes. The X axis is horizontal in the surface frame.
const (
	AxisX Axis = iota
	AxisY
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	if a == AxisX {
		return "X"
	}
	return "Y"
}

// Mode selects how the surface is deployed (§3.2).
type Mode int

const (
	// Transmissive: endpoints on opposite sides, signal passes through.
	Transmissive Mode = iota
	// Reflective: endpoints on the same side, signal reflects off the
	// metal backplane behind the stack.
	Reflective
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Transmissive {
		return "transmissive"
	}
	return "reflective"
}

// Design is the buildable description of a LLAMA-style polarization
// rotator. Use one of the prefab constructors (OptimizedFR4Design,
// NaiveFR4Design, Rogers5880Design) or fill the fields and call Validate.
type Design struct {
	// Name labels the design in reports.
	Name string
	// Substrate is the PCB dielectric.
	Substrate materials.Dielectric
	// Diode is the varactor model loading the BFS patterns.
	Diode varactor.Model
	// CenterHz is the design center frequency f0.
	CenterHz float64

	// PatternIndex is the base slow-wave refractive index of the printed
	// sections: meandered copper patterns slow the guided wave well below
	// c, which is what makes electrically long paths fit in a thin board.
	PatternIndex float64

	// QWPLayerThickness is the dielectric thickness of each QWP board,
	// meters (BoM accounting).
	QWPLayerThickness float64
	// QWPPath is the electrical path length (meters) of the meandered
	// pattern traces of one QWP board (Fig. 6's inner + outer patterns) —
	// the length the guided wave actually travels per board.
	QWPPath float64
	// QWPConcentration multiplies the substrate's bulk dielectric
	// attenuation along the patterned path: printed slow-wave patterns
	// concentrate fields in the laminate.
	QWPConcentration float64
	// QWPMismatch is the fractional characteristic-impedance deviation
	// of the QWP sections from free space (Fabry–Pérot ripple source).
	QWPMismatch float64
	// QWPSelectivity is the normalized susceptance slope (B·Z0 per unit
	// fractional detuning) of the resonant shunt tanks printed on each
	// QWP face. It sets the surface's band-pass rolloff: larger values
	// narrow the usable band.
	QWPSelectivity float64

	// BFSLayers is the number of varactor-loaded phase-shifter layers.
	// The paper's optimized design uses two; the naive scaled-down
	// 10 GHz design uses four.
	BFSLayers int
	// BFSLayerThickness is the dielectric thickness per BFS layer
	// (BoM accounting).
	BFSLayerThickness float64
	// BFSPath is the electrical path length (meters) of the meandered
	// BFS pattern per layer (the Fig. 6 BFS traces are 23.2 mm long in a
	// 40 mm cell).
	BFSPath float64
	// BFSConcentration multiplies bulk dielectric attenuation along the
	// loaded BFS path (loading concentrates fields further).
	BFSConcentration float64
	// LoadPitch is the varactor loading pitch along the synthetic line,
	// meters. Smaller pitch = heavier loading = more phase swing and
	// more loss. Calibrate with CalibrateLoadPitch.
	LoadPitch float64
	// BFSSelectivity is the normalized susceptance scale of the
	// varactor-loaded tanks on the BFS faces. Because the tank
	// capacitance is the diode's C(V), bias detunes the tank: low bias
	// (large C) pulls the efficiency peak down in frequency and costs
	// insertion loss at the carrier — the behaviour of Fig. 11.
	BFSSelectivity float64
	// BFSResonanceBias is the bias voltage (volts) at which the BFS face
	// tanks resonate exactly at CenterHz.
	BFSResonanceBias float64

	// BiasOffsetX is the effective bias error (volts) of the X axis
	// relative to Y, modelling the fabrication and assembly error the
	// paper compensates by extending the sweep range to 30 V.
	BiasOffsetX float64

	// UnitSize is the unit-cell edge, meters (32 mm QWP / 40 mm BFS in
	// Fig. 6; a single figure is used for BoM accounting).
	UnitSize float64
	// UnitsX, UnitsY are the lattice dimensions.
	UnitsX, UnitsY int
	// VaractorsPerUnit is the diode count per functional unit (4 in the
	// prototype: two per axis).
	VaractorsPerUnit int
	// VaractorUnitCost is the per-diode cost in USD (~$0.50).
	VaractorUnitCost float64

	// MinBiasV, MaxBiasV delimit the usable control range (0–30 V with
	// the paper's Tektronix 2230G supply).
	MinBiasV, MaxBiasV float64
}

// Validate reports an error when the design cannot be built.
func (d Design) Validate() error {
	if err := d.Substrate.Validate(); err != nil {
		return fmt.Errorf("metasurface: %s: %w", d.Name, err)
	}
	if err := d.Diode.Validate(); err != nil {
		return fmt.Errorf("metasurface: %s: %w", d.Name, err)
	}
	for _, f := range d.numericFields() {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("metasurface: %s: non-finite %s %g", d.Name, f.name, f.v)
		}
	}
	switch {
	case d.CenterHz <= 0:
		return fmt.Errorf("metasurface: %s: non-positive center frequency", d.Name)
	case d.PatternIndex < 1:
		return fmt.Errorf("metasurface: %s: pattern index < 1", d.Name)
	case d.QWPLayerThickness <= 0:
		return fmt.Errorf("metasurface: %s: non-positive QWP thickness", d.Name)
	case d.QWPPath <= 0:
		return fmt.Errorf("metasurface: %s: non-positive QWP path", d.Name)
	case d.QWPConcentration < 1:
		return fmt.Errorf("metasurface: %s: QWP concentration < 1", d.Name)
	case math.Abs(d.QWPMismatch) >= 0.5:
		return fmt.Errorf("metasurface: %s: QWP mismatch |%g| ≥ 0.5", d.Name, d.QWPMismatch)
	case d.QWPSelectivity < 0:
		return fmt.Errorf("metasurface: %s: negative QWP selectivity", d.Name)
	case d.BFSSelectivity < 0:
		return fmt.Errorf("metasurface: %s: negative BFS selectivity", d.Name)
	case d.BFSSelectivity > 0 && d.BFSResonanceBias <= 0:
		return fmt.Errorf("metasurface: %s: BFS tanks need a positive resonance bias", d.Name)
	case d.BFSLayers < 1:
		return fmt.Errorf("metasurface: %s: needs ≥1 BFS layer", d.Name)
	case d.BFSLayerThickness <= 0:
		return fmt.Errorf("metasurface: %s: non-positive BFS thickness", d.Name)
	case d.BFSPath <= 0:
		return fmt.Errorf("metasurface: %s: non-positive BFS path", d.Name)
	case d.BFSConcentration < 1:
		return fmt.Errorf("metasurface: %s: BFS concentration < 1", d.Name)
	case d.LoadPitch <= 0:
		return fmt.Errorf("metasurface: %s: non-positive load pitch", d.Name)
	case d.UnitSize <= 0 || d.UnitsX < 1 || d.UnitsY < 1:
		return fmt.Errorf("metasurface: %s: bad lattice geometry", d.Name)
	case d.VaractorsPerUnit < 1:
		return fmt.Errorf("metasurface: %s: needs ≥1 varactor per unit", d.Name)
	case d.MinBiasV < 0 || d.MaxBiasV <= d.MinBiasV:
		return fmt.Errorf("metasurface: %s: invalid bias range [%g,%g]", d.Name, d.MinBiasV, d.MaxBiasV)
	}
	return nil
}

// numericField names one float parameter of a design for Validate.
type numericField struct {
	name string
	v    float64
}

// numericFields lists every float parameter of the design, its
// substrate and its varactor model. The range checks in Validate are
// written as comparisons that NaN passes, so Validate first rejects any
// non-finite value here. An array, not a slice, so Validate allocates
// nothing.
func (d Design) numericFields() [30]numericField {
	return [...]numericField{
		{"substrate εr", d.Substrate.EpsilonR},
		{"substrate loss tangent", d.Substrate.LossTangent},
		{"substrate cost", d.Substrate.CostPerM2PerLayer},
		{"diode C0", d.Diode.C0},
		{"diode Vj", d.Diode.Vj},
		{"diode grading coefficient", d.Diode.M},
		{"diode Cp", d.Diode.Cp},
		{"diode Rs", d.Diode.Rs},
		{"diode Ls", d.Diode.Ls},
		{"diode leakage", d.Diode.LeakageA},
		{"diode min bias", d.Diode.MinBias},
		{"diode max bias", d.Diode.MaxBias},
		{"center frequency", d.CenterHz},
		{"pattern index", d.PatternIndex},
		{"QWP thickness", d.QWPLayerThickness},
		{"QWP path", d.QWPPath},
		{"QWP concentration", d.QWPConcentration},
		{"QWP mismatch", d.QWPMismatch},
		{"QWP selectivity", d.QWPSelectivity},
		{"BFS thickness", d.BFSLayerThickness},
		{"BFS path", d.BFSPath},
		{"BFS concentration", d.BFSConcentration},
		{"load pitch", d.LoadPitch},
		{"BFS selectivity", d.BFSSelectivity},
		{"BFS resonance bias", d.BFSResonanceBias},
		{"X bias offset", d.BiasOffsetX},
		{"unit size", d.UnitSize},
		{"varactor unit cost", d.VaractorUnitCost},
		{"min bias", d.MinBiasV},
		{"max bias", d.MaxBiasV},
	}
}

// Units returns the total functional unit count.
func (d Design) Units() int { return d.UnitsX * d.UnitsY }

// Area returns the surface area in m².
func (d Design) Area() float64 {
	return float64(d.UnitsX) * float64(d.UnitsY) * d.UnitSize * d.UnitSize
}

// VaractorCount returns the total diode count (720 for the prototype).
func (d Design) VaractorCount() int { return d.Units() * d.VaractorsPerUnit }

// CopperLayers returns the total patterned copper layer count: two faces
// per QWP board plus one per BFS layer.
func (d Design) CopperLayers() int { return 4 + d.BFSLayers }

// BillOfMaterials returns the cost breakdown of the design, reproducing
// the paper's §4 accounting.
func (d Design) BillOfMaterials() materials.BillOfMaterials {
	stack := materials.Stackup{
		Substrate:      d.Substrate,
		CopperLayers:   d.CopperLayers(),
		LayerThickness: (2*d.QWPLayerThickness + float64(d.BFSLayers)*d.BFSLayerThickness) / float64(d.CopperLayers()),
		Area:           d.Area(),
	}
	return materials.BillOfMaterials{
		PCB:             stack.BoardCost(),
		Varactors:       float64(d.VaractorCount()) * d.VaractorUnitCost,
		ControlOverhead: 0.05 * stack.BoardCost(), // connectors, bias tees
	}
}

// OptimizedFR4Design returns the paper's contribution: the cheap FR4 stack
// with two thin phase-shifter layers, tuned for centerHz (2.44 GHz for the
// prototype; §3.2 also reports a 900 MHz rescale).
//
// The prototype lattice is 480×480 mm with 180 functional units; the
// bias-asymmetry term reproduces the nonzero Table 1 diagonal.
func OptimizedFR4Design(centerHz float64) Design {
	scale := units.ISMBandCenter / centerHz // geometric scaling for other bands
	d := Design{
		Name:              fmt.Sprintf("LLAMA optimized FR4 @%.2f GHz", centerHz/1e9),
		Substrate:         materials.FR4,
		Diode:             varactor.SMV1233,
		CenterHz:          centerHz,
		PatternIndex:      2.5,
		QWPLayerThickness: 1.0e-3 * scale,
		QWPPath:           0.020 * scale,
		QWPConcentration:  2.5,
		QWPMismatch:       0.08,
		QWPSelectivity:    7,
		BFSLayers:         2,
		BFSLayerThickness: 0.8e-3 * scale,
		BFSPath:           0.0232 * scale, // Fig. 6 BFS trace length
		BFSConcentration:  2.5,
		LoadPitch:         80e-3 * scale, // recalibrated below
		BFSSelectivity:    0.35,
		BFSResonanceBias:  8,
		BiasOffsetX:       1.1,
		UnitSize:          0.0358 * scale, // blended 32/40 mm unit pitch
		UnitsX:            12,
		UnitsY:            15,
		VaractorsPerUnit:  4,
		VaractorUnitCost:  0.50,
		MinBiasV:          0,
		MaxBiasV:          30,
	}
	d.LoadPitch = d.CalibrateLoadPitch(units.Radians(97), d.effectiveMinBias(2), 15)
	return d
}

// effectiveMinBias returns the lowest bias the X axis can actually see
// when the controller programs vNominal: the fabrication bias offset
// shifts the axis (§3.3 explains why the sweep range extends to 30 V).
func (d Design) effectiveMinBias(vNominal float64) float64 {
	v := vNominal - d.BiasOffsetX
	if v < 0 {
		v = 0
	}
	return v
}

// NaiveFR4Design returns the straw-man the paper measures in Fig. 9: the
// multi-layer geometry of the 10 GHz Rogers design [36] scaled to 2.4 GHz
// but fabricated on FR4. Twice the phase-shifter layers at three times the
// thickness make the 0.02 loss tangent ruinous.
func NaiveFR4Design(centerHz float64) Design {
	d := OptimizedFR4Design(centerHz)
	d.Name = fmt.Sprintf("naive FR4 @%.2f GHz", centerHz/1e9)
	d.QWPLayerThickness *= 3
	d.QWPPath *= 2
	d.QWPConcentration = 8
	d.BFSLayers = 4
	d.BFSLayerThickness *= 3
	d.BFSPath *= 1.7
	d.BFSConcentration = 14
	d.LoadPitch = d.CalibrateLoadPitch(units.Radians(97), d.effectiveMinBias(2), 15)
	return d
}

// Rogers5880Design returns the reference design of Fig. 8: the same
// multi-layer geometry as NaiveFR4Design but on low-loss Rogers 5880,
// reproducing the high transmission efficiency of [36].
func Rogers5880Design(centerHz float64) Design {
	d := NaiveFR4Design(centerHz)
	d.Name = fmt.Sprintf("Rogers 5880 @%.2f GHz", centerHz/1e9)
	d.Substrate = materials.Rogers5880
	d.LoadPitch = d.CalibrateLoadPitch(units.Radians(97), d.effectiveMinBias(2), 15)
	return d
}

// calibrationKey identifies one calibration: the design's physics with
// LoadPitch zeroed (the bisection overwrites it, and labels never enter
// the fingerprint) plus the exact bits of target, vLo and vHi.
type calibrationKey struct {
	design           string
	target, vLo, vHi uint64
}

// calibrationKey returns the memo key of one calibration of d.
func (d Design) calibrationKey(target, vLo, vHi float64) calibrationKey {
	d.LoadPitch = 0
	return calibrationKey{
		design: DesignFingerprint(d),
		target: math.Float64bits(target),
		vLo:    math.Float64bits(vLo),
		vHi:    math.Float64bits(vHi),
	}
}

// calibrations memoizes CalibrateLoadPitch for the life of the process.
// It is not a response table: SetCaching does not bypass it and nothing
// persists it, because it holds results of a pure function of its key.
var calibrations sync.Map // calibrationKey → float64

// CalibrateLoadPitch searches for the varactor loading pitch that makes
// the BFS transmission-phase swing between bias vLo and vHi equal target
// radians at the design center frequency. The paper's Table 1 corner
// (48.7° rotation = 97.4° differential phase between 2 V and 15 V) is the
// calibration point. The swing is measured on the full per-axis network
// (loaded line plus varactor tanks) with phase unwrapped by stepping the
// bias, so tank contributions are included. The returned pitch is found
// by bisection; the search is monotone because heavier loading (smaller
// pitch) always increases phase swing.
//
// The result is a pure function of the design's physics and the three
// arguments, so each distinct calibration runs once per process and
// later calls return the memoized pitch. It panics unless target is
// positive and finite and vLo, vHi are finite.
func (d Design) CalibrateLoadPitch(target float64, vLo, vHi float64) float64 {
	if !(target > 0) || math.IsInf(target, 0) {
		panic("metasurface: calibration target must be positive and finite")
	}
	if math.IsNaN(vLo) || math.IsInf(vLo, 0) || math.IsNaN(vHi) || math.IsInf(vHi, 0) {
		panic("metasurface: non-finite calibration bias")
	}
	key := d.calibrationKey(target, vLo, vHi)
	if pitch, ok := calibrations.Load(key); ok {
		return pitch.(float64)
	}
	// No singleflight: concurrent misses on one key compute the same
	// bits, and the first store wins.
	pitch, _ := calibrations.LoadOrStore(key, d.calibrateLoadPitch(target, vLo, vHi))
	return pitch.(float64)
}

// calibrateLoadPitch is CalibrateLoadPitch's unmemoized geometric
// bisection.
func (d Design) calibrateLoadPitch(target float64, vLo, vHi float64) float64 {
	swing := func(pitch float64) float64 {
		trial := d
		trial.LoadPitch = pitch
		return math.Abs(trial.bfsUnwrappedPhaseDelta(trial.CenterHz, vLo, vHi))
	}
	// Bracket: huge pitch = negligible loading; tiny pitch = heavy.
	loPitch, hiPitch := 0.2e-3, 20.0
	if swing(loPitch) < target {
		// Even the heaviest loading cannot reach the target; return the
		// heaviest valid pitch rather than failing, so exotic designs
		// degrade gracefully.
		return loPitch
	}
	for i := 0; i < 80; i++ {
		lo, hi := loPitch, hiPitch
		mid := math.Sqrt(loPitch * hiPitch) // geometric bisection
		if swing(mid) > target {
			loPitch = mid
		} else {
			hiPitch = mid
		}
		// Each step is a pure function of (loPitch, hiPitch): once one
		// leaves both unchanged, so does every later step.
		if loPitch == lo && hiPitch == hi {
			break
		}
	}
	return math.Sqrt(loPitch * hiPitch)
}
