package psu

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestChannelValidity(t *testing.T) {
	if !CH1.Valid() || !CH2.Valid() || !CH3.Valid() {
		t.Error("CH1..CH3 must be valid")
	}
	if Channel(0).Valid() || Channel(4).Valid() {
		t.Error("out-of-range channels must be invalid")
	}
	if CH2.String() != "CH2" {
		t.Errorf("CH2 string = %q", CH2.String())
	}
}

func TestSelect(t *testing.T) {
	s := New()
	if s.Selected() != CH1 {
		t.Error("default selection should be CH1")
	}
	if err := s.Select(CH2); err != nil {
		t.Fatal(err)
	}
	if s.Selected() != CH2 {
		t.Error("selection did not stick")
	}
	if err := s.Select(Channel(9)); !errors.Is(err, ErrInvalidChannel) {
		t.Errorf("bad channel error = %v", err)
	}
}

func TestSetVoltageAndReadback(t *testing.T) {
	s := New()
	if err := s.SetVoltage(CH1, 12.5, 0); err != nil {
		t.Fatal(err)
	}
	v, err := s.Setpoint(CH1)
	if err != nil || v != 12.5 {
		t.Errorf("setpoint = %v, %v", v, err)
	}
}

func TestVoltageRangeEnforced(t *testing.T) {
	s := New()
	if err := s.SetVoltage(CH1, -1, 0); !errors.Is(err, ErrVoltageRange) {
		t.Errorf("negative voltage error = %v", err)
	}
	if err := s.SetVoltage(CH1, 30.5, 0); !errors.Is(err, ErrVoltageRange) {
		t.Errorf("over-range error = %v", err)
	}
	if err := s.SetVoltage(CH1, 30, 0); err != nil {
		t.Errorf("30 V should be allowed: %v", err)
	}
}

// TestNonFiniteVoltageRejected pins that NaN and ±Inf never become a
// setpoint: NaN fails every comparison, so a plain out-of-range test
// would let it through.
func TestNonFiniteVoltageRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := New()
		if err := s.SetVoltage(CH1, 4, 0); err != nil {
			t.Fatal(err)
		}
		at := time.Second
		if err := s.SetVoltage(CH1, v, at); !errors.Is(err, ErrVoltageRange) {
			t.Errorf("SetVoltage(%v) error = %v, want ErrVoltageRange", v, err)
		}
		if err := s.SetBoth(v, 5, at); !errors.Is(err, ErrVoltageRange) {
			t.Errorf("SetBoth(%v, 5) error = %v, want ErrVoltageRange", v, err)
		}
		if err := s.SetBoth(5, v, at); !errors.Is(err, ErrVoltageRange) {
			t.Errorf("SetBoth(5, %v) error = %v, want ErrVoltageRange", v, err)
		}
		v1, _ := s.Setpoint(CH1)
		v2, _ := s.Setpoint(CH2)
		if v1 != 4 || v2 != 0 {
			t.Errorf("after rejected %v: setpoints %v/%v, want 4/0", v, v1, v2)
		}
	}
}

func TestSwitchRateLimit(t *testing.T) {
	s := New()
	if err := s.SetVoltage(CH1, 5, 0); err != nil {
		t.Fatal(err)
	}
	// 10 ms later: too fast (50 Hz = 20 ms min).
	if err := s.SetVoltage(CH1, 6, 10*time.Millisecond); !errors.Is(err, ErrTooFast) {
		t.Errorf("fast switch error = %v", err)
	}
	// 20 ms later: allowed.
	if err := s.SetVoltage(CH1, 6, 20*time.Millisecond); err != nil {
		t.Errorf("50 Hz switch rejected: %v", err)
	}
	// The limit is global across channels (shared programming bus).
	if err := s.SetVoltage(CH2, 3, 25*time.Millisecond); !errors.Is(err, ErrTooFast) {
		t.Errorf("cross-channel fast switch error = %v", err)
	}
}

func TestSetBothCountsAsOneSwitch(t *testing.T) {
	s := New()
	if err := s.SetBoth(5, 7, 0); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Setpoint(CH1)
	v2, _ := s.Setpoint(CH2)
	if v1 != 5 || v2 != 7 {
		t.Errorf("SetBoth = %v/%v", v1, v2)
	}
	if err := s.SetBoth(6, 8, 10*time.Millisecond); !errors.Is(err, ErrTooFast) {
		t.Errorf("fast SetBoth error = %v", err)
	}
	if err := s.SetBoth(6, 31, 40*time.Millisecond); !errors.Is(err, ErrVoltageRange) {
		t.Errorf("range error = %v", err)
	}
}

func TestOutputGating(t *testing.T) {
	s := New()
	if err := s.SetVoltage(CH1, 10, 0); err != nil {
		t.Fatal(err)
	}
	// Output off: terminal voltage is zero regardless of setpoint.
	v, err := s.OutputVoltage(CH1, time.Second)
	if err != nil || v != 0 {
		t.Errorf("off output voltage = %v, %v", v, err)
	}
	if err := s.SetOutput(CH1, true); err != nil {
		t.Fatal(err)
	}
	on, err := s.Output(CH1)
	if err != nil || !on {
		t.Errorf("output state = %v, %v", on, err)
	}
}

func TestSlewSettling(t *testing.T) {
	s := New()
	if err := s.SetOutput(CH1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVoltage(CH1, 20, 0); err != nil {
		t.Fatal(err)
	}
	// At 2000 V/s, 20 V takes 10 ms. Halfway there at 5 ms.
	v, _ := s.OutputVoltage(CH1, 5*time.Millisecond)
	if math.Abs(v-10) > 0.01 {
		t.Errorf("mid-slew voltage = %v, want 10", v)
	}
	settled, _ := s.Settled(CH1, 5*time.Millisecond)
	if settled {
		t.Error("should not be settled mid-slew")
	}
	v, _ = s.OutputVoltage(CH1, 15*time.Millisecond)
	if v != 20 {
		t.Errorf("settled voltage = %v, want 20", v)
	}
	settled, _ = s.Settled(CH1, 15*time.Millisecond)
	if !settled {
		t.Error("should be settled after slew")
	}
}

func TestSlewDownward(t *testing.T) {
	s := New()
	if err := s.SetOutput(CH2, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVoltage(CH2, 20, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVoltage(CH2, 0, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	v, _ := s.OutputVoltage(CH2, 105*time.Millisecond)
	if math.Abs(v-10) > 0.01 {
		t.Errorf("downward mid-slew = %v, want 10", v)
	}
}

func TestSettledWhenOutputOff(t *testing.T) {
	s := New()
	ok, err := s.Settled(CH3, 0)
	if err != nil || !ok {
		t.Errorf("off channel should report settled: %v %v", ok, err)
	}
}

func TestInvalidChannelEverywhere(t *testing.T) {
	s := New()
	bad := Channel(0)
	if err := s.SetVoltage(bad, 1, 0); !errors.Is(err, ErrInvalidChannel) {
		t.Error("SetVoltage should reject bad channel")
	}
	if _, err := s.Setpoint(bad); !errors.Is(err, ErrInvalidChannel) {
		t.Error("Setpoint should reject bad channel")
	}
	if err := s.SetOutput(bad, true); !errors.Is(err, ErrInvalidChannel) {
		t.Error("SetOutput should reject bad channel")
	}
	if _, err := s.Output(bad); !errors.Is(err, ErrInvalidChannel) {
		t.Error("Output should reject bad channel")
	}
	if _, err := s.OutputVoltage(bad, 0); !errors.Is(err, ErrInvalidChannel) {
		t.Error("OutputVoltage should reject bad channel")
	}
	if _, err := s.Settled(bad, 0); !errors.Is(err, ErrInvalidChannel) {
		t.Error("Settled should reject bad channel")
	}
}

func TestFiftyHertzSweepThroughput(t *testing.T) {
	// The paper's coarse-to-fine sweep issues T² = 25 voltage pairs per
	// iteration at 50 Hz: all must be accepted when spaced 20 ms apart.
	s := New()
	now := time.Duration(0)
	for i := 0; i < 25; i++ {
		if err := s.SetBoth(float64(i%6)*5, float64(i%6)*5, now); err != nil {
			t.Fatalf("step %d rejected: %v", i, err)
		}
		now += MinSwitchInterval
	}
}

func TestStringer(t *testing.T) {
	s := New()
	if !strings.Contains(s.String(), "2230G") {
		t.Errorf("String = %q", s.String())
	}
}
