package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/psu"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.TxPowerW != 10e-3 || cfg.SamplesPerMeasure != 256 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.SwitchPeriod != psu.MinSwitchInterval {
		t.Errorf("switch period = %v", cfg.SwitchPeriod)
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	badDesign := metasurface.OptimizedFR4Design(2.44e9)
	badDesign.BFSLayers = 0
	for _, c := range []struct {
		name string
		cfg  Config
		want string // substring the error must carry; "" = any error
	}{
		{"design", Config{Seed: 1, Design: badDesign}, ""},
		{"geometry", Config{Seed: 1, Geom: channel.Geometry{TxRx: -1, TxSurface: 1, SurfaceRx: 1}}, ""},
		{"samples", Config{Seed: 1, SamplesPerMeasure: -1}, "SamplesPerMeasure"},
		{"switch period", Config{Seed: 1, SwitchPeriod: -time.Millisecond}, "SwitchPeriod"},
	} {
		_, err := NewSystem(c.cfg)
		if err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.want)
		}
	}
}

func TestActuatorAdvancesVirtualTime(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	act := sys.Actuator()
	start := sys.Clock.Now()
	if err := act.Apply(5, 7); err != nil {
		t.Fatal(err)
	}
	if got := sys.Clock.Now() - start; got != psu.MinSwitchInterval {
		t.Errorf("actuation advanced %v, want %v", got, psu.MinSwitchInterval)
	}
	vx, vy := sys.Surface.Bias()
	if vx != 5 || vy != 7 {
		t.Errorf("surface bias = (%v, %v)", vx, vy)
	}
}

func TestActuatorRespectsSupplyRate(t *testing.T) {
	// Two applies in a row must both succeed: the dwell between them
	// satisfies the 50 Hz limit.
	sys, err := NewSystem(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	act := sys.Actuator()
	for i := 0; i < 5; i++ {
		if err := act.Apply(float64(i*3), float64(30-i*3)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

func TestMeasureRSSITracksScene(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Actuator().Apply(2, 15); err != nil {
		t.Fatal(err)
	}
	// The block estimate should sit near the scene's analytic power
	// (within estimator noise).
	want := sys.CurrentDBm()
	got := sys.MeasureRSSI()
	if math.Abs(got-want) > 2.5 {
		t.Errorf("RSSI estimate %v dBm vs analytic %v dBm", got, want)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Optimize(context.Background(), control.DefaultSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	gain := sys.CurrentDBm() - sys.BaselineDBm()
	if gain < 6 {
		t.Errorf("closed-loop gain = %v dB, want ≥ 6 (paper: up to 15)", gain)
	}
	// Virtual time cost matches the paper's 0.02·N·T² = 1 s model (plus
	// the final apply).
	if el := res.Elapsed(sys.Config().SwitchPeriod); el < time.Second || el > 1200*time.Millisecond {
		t.Errorf("sweep took %v of virtual time, want ≈1 s", el)
	}
}

// TestOptimizePinnedBits pins every bit of one seeded transmissive and
// one reflective Algorithm 1 run: best bias, best power, switch count and
// a digest of the full measurement history. Any change to the measurement
// path that is not bit-identical — tone synthesis, noise draws, summation
// order — moves them.
func TestOptimizePinnedBits(t *testing.T) {
	for _, c := range []struct {
		name          string
		cfg           Config
		vx, vy, best  uint64
		switches      int
		samples       int
		historyDigest string
	}{
		{"transmissive", Config{Seed: 11},
			0x3ff3333333333333, 0x4039333333333333, 0xc0234645dd86e7ec, 51, 50, "5a004361208dd0f0"},
		{"reflective", Config{Seed: 12, Mode: metasurface.Reflective,
			Geom: channel.Geometry{TxRx: 0.70, TxSurface: 0.36, SurfaceRx: 0.36}},
			0x4033333333333333, 0x4020cccccccccccd, 0xc027af1f994a2674, 51, 50, "c504361effc0cb0b"},
	} {
		sys, err := NewSystem(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Optimize(context.Background(), control.DefaultSweepConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range res.Samples {
			fmt.Fprintf(h, "%016x %016x %016x\n", math.Float64bits(s.Vx), math.Float64bits(s.Vy), math.Float64bits(s.PowerDBm))
		}
		got := fmt.Sprintf("%#016x %#016x %#016x %d %d %x", math.Float64bits(res.BestVx), math.Float64bits(res.BestVy),
			math.Float64bits(res.BestPowerDBm), res.Switches, len(res.Samples), h.Sum(nil)[:8])
		want := fmt.Sprintf("%#016x %#016x %#016x %d %d %s", c.vx, c.vy, c.best, c.switches, c.samples, c.historyDigest)
		if got != want {
			t.Errorf("%s: Optimize result\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// BenchmarkMeasureRSSI times one closed-loop measurement at a fixed bias:
// the scene's field transfer (a response-table hit after the first call)
// plus the 256-sample received-power block.
func BenchmarkMeasureRSSI(b *testing.B) {
	sys, err := NewSystem(Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Actuator().Apply(2, 15); err != nil {
		b.Fatal(err)
	}
	var sink float64
	for b.Loop() {
		sink += sys.MeasureRSSI()
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN RSSI")
	}
}

func TestFullScanEndToEnd(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.FullScan(context.Background(), control.DefaultSweepConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 49 {
		t.Errorf("samples = %d, want 7×7", len(res.Samples))
	}
}

func TestNetworkedSystemEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ns, err := StartNetworked(ctx, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	idn, err := ns.InstrumentID()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(idn, "2230G") {
		t.Errorf("IDN = %q", idn)
	}

	cfg := control.DefaultSweepConfig()
	res, err := ns.Optimize(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPowerDBm == 0 || len(res.Samples) != cfg.Iterations*cfg.Switches*cfg.Switches {
		t.Errorf("networked sweep shape: %d samples, best %v dBm", len(res.Samples), res.BestPowerDBm)
	}
	gain := ns.CurrentDBm() - ns.BaselineDBm()
	if gain < 5 {
		t.Errorf("networked closed-loop gain = %v dB, want ≥ 5", gain)
	}
	if ns.LostReports() != 0 {
		t.Errorf("lost %d telemetry reports on loopback", ns.LostReports())
	}
}

func TestNetworkedSystemClosesCleanly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ns, err := StartNetworked(ctx, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
