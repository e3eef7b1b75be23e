package metasurface

// Tests of the CalibrateLoadPitch memo and of the bisection's early
// stop. Both are pure speed changes, so every test here pins bit
// identity against an uncached or unshortened reference.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/llama-surface/llama/internal/units"
)

// calibration is one CalibrateLoadPitch input.
type calibration struct {
	name             string
	d                Design
	target, vLo, vHi float64
}

func (c calibration) memoized() float64 { return c.d.CalibrateLoadPitch(c.target, c.vLo, c.vHi) }
func (c calibration) cold() float64     { return c.d.calibrateLoadPitch(c.target, c.vLo, c.vHi) }

// reproduceCalibrations returns the eight distinct calibrations a full
// experiment run performs: the three prefab designs at 2.44 GHz, the
// optimized design at 915 MHz, and abl-layers' layer counts 1–4.
func reproduceCalibrations() []calibration {
	target := units.Radians(97)
	prefab := func(d Design) calibration {
		return calibration{d.Name, d, target, d.effectiveMinBias(2), 15}
	}
	cs := []calibration{
		prefab(OptimizedFR4Design(units.DefaultCarrierHz)),
		prefab(NaiveFR4Design(units.DefaultCarrierHz)),
		prefab(Rogers5880Design(units.DefaultCarrierHz)),
		prefab(OptimizedFR4Design(units.RFIDBandCenter)),
	}
	for layers := 1; layers <= 4; layers++ {
		d := OptimizedFR4Design(units.DefaultCarrierHz)
		d.BFSLayers = layers
		cs = append(cs, calibration{fmt.Sprintf("%d BFS layers", layers), d, target, 0.9, 15})
	}
	return cs
}

// fixedStepCalibrate is the bisection as it was before the fixed-point
// stop: always exactly 80 steps.
func fixedStepCalibrate(d Design, target, vLo, vHi float64) float64 {
	swing := func(pitch float64) float64 {
		trial := d
		trial.LoadPitch = pitch
		return math.Abs(trial.bfsUnwrappedPhaseDelta(trial.CenterHz, vLo, vHi))
	}
	loPitch, hiPitch := 0.2e-3, 20.0
	if swing(loPitch) < target {
		return loPitch
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(loPitch * hiPitch)
		if swing(mid) > target {
			loPitch = mid
		} else {
			hiPitch = mid
		}
	}
	return math.Sqrt(loPitch * hiPitch)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCalibrationMemoBitIdentity(t *testing.T) {
	cs := reproduceCalibrations()
	keys := make(map[calibrationKey]bool)
	for _, c := range cs {
		keys[c.d.calibrationKey(c.target, c.vLo, c.vHi)] = true
	}
	if len(keys) != len(cs) {
		t.Fatalf("%d calibrations share %d memo keys, want all distinct", len(cs), len(keys))
	}
	calibrations.Clear()
	for _, c := range cs {
		want := c.cold()
		for call := 1; call <= 2; call++ {
			if got := c.memoized(); !sameBits(got, want) {
				t.Errorf("%s: call %d = %v, unmemoized bisection = %v", c.name, call, got, want)
			}
		}
	}
}

func TestCalibrationFixedPointStop(t *testing.T) {
	cs := reproduceCalibrations()
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	cs = append(cs,
		calibration{"50° target", d, units.Radians(50), 0.9, 15},
		calibration{"120° target", d, units.Radians(120), 0.9, 15},
	)
	for _, c := range cs {
		want := fixedStepCalibrate(c.d, c.target, c.vLo, c.vHi)
		if got := c.cold(); !sameBits(got, want) {
			t.Errorf("%s: stopped bisection = %v, 80-step bisection = %v", c.name, got, want)
		}
	}
	// The bracket's upper end never moves for the multi-layer designs:
	// they converge onto it exactly, the stop's edge case.
	for _, c := range cs[1:3] {
		if got := c.cold(); got != 20.0 {
			t.Errorf("%s: pitch = %v, want the bracket top 20", c.name, got)
		}
	}
}

func TestCalibrationMemoKeyScope(t *testing.T) {
	target := units.Radians(97)
	base := OptimizedFR4Design(units.DefaultCarrierHz)
	key := base.calibrationKey(target, 0.9, 15)
	shares := map[string]func(*Design){
		"Name":           func(d *Design) { d.Name = "relabelled" },
		"Substrate.Name": func(d *Design) { d.Substrate.Name = "relabelled" },
		"LoadPitch":      func(d *Design) { d.LoadPitch *= 2 },
	}
	for field, mut := range shares {
		d := base
		mut(&d)
		if d.calibrationKey(target, 0.9, 15) != key {
			t.Errorf("a design differing only in %s gets its own memo entry", field)
		}
	}
	splits := map[string]func(*Design){
		"Substrate.LossTangent": func(d *Design) { d.Substrate.LossTangent *= 2 },
		"BFSLayers":             func(d *Design) { d.BFSLayers++ },
	}
	for field, mut := range splits {
		d := base
		mut(&d)
		if d.calibrationKey(target, 0.9, 15) == key {
			t.Errorf("a design differing in %s shares the memo entry", field)
		}
	}
	if base.calibrationKey(target, math.Copysign(0, -1), 15) == base.calibrationKey(target, 0, 15) {
		t.Error("vLo −0 and +0 alias one memo entry")
	}

	// A relabelled design is answered from the entry its original made.
	want := base.CalibrateLoadPitch(target, 0.9, 15)
	d := base
	d.Name = "relabelled"
	if got, ok := calibrations.Load(d.calibrationKey(target, 0.9, 15)); !ok || !sameBits(got.(float64), want) {
		t.Errorf("relabelled design: memo entry %v (present %v), want %v", got, ok, want)
	}
}

func TestCalibrationMemoConcurrent(t *testing.T) {
	cs := reproduceCalibrations()
	want := make([]float64, len(cs))
	for i, c := range cs {
		want[i] = c.cold()
	}
	calibrations.Clear()
	// Goroutine i calibrates keys i and i+1, so every key has two
	// concurrent callers racing to miss and store it.
	got := make([][2]float64, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 2 {
				got[i][j] = cs[(i+j)%len(cs)].memoized()
			}
		}()
	}
	wg.Wait()
	for i := range cs {
		for j := range 2 {
			k := (i + j) % len(cs)
			if !sameBits(got[i][j], want[k]) {
				t.Errorf("goroutine %d, %s: got %v, want %v", i, cs[k].name, got[i][j], want[k])
			}
		}
	}
}

// BenchmarkCalibrateLoadPitchCold times one unmemoized calibration of
// the optimized design: the bisection every distinct CalibrateLoadPitch
// key pays once per process.
func BenchmarkCalibrateLoadPitchCold(b *testing.B) {
	d := OptimizedFR4Design(units.DefaultCarrierHz)
	target, vLo := units.Radians(97), d.effectiveMinBias(2)
	for i := 0; i < b.N; i++ {
		if pitch := d.calibrateLoadPitch(target, vLo, 15); !(pitch > 0) {
			b.Fatal("bad calibration")
		}
	}
}
