package signal

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestToneSourcePowerAndFrequency(t *testing.T) {
	src := NewToneSource(500e3, 1e6, 0.5)
	buf := src.Fill(make([]complex128, 4096))
	// Tone power = amplitude².
	if got := Power(buf); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("tone power = %v, want 0.25", got)
	}
	// All energy at 500 kHz... which at fs=1 MHz is the Nyquist edge;
	// use a gentler offset for the bin check.
	src2 := NewToneSource(250e3, 1e6, 1)
	buf2 := src2.Fill(make([]complex128, 1024))
	spec := append([]complex128(nil), buf2...)
	FFT(spec)
	bin, _ := PeakBin(spec, 0, len(spec))
	if got := BinFrequency(bin, len(spec), 1e6); math.Abs(got-250e3) > 1e3 {
		t.Errorf("tone peak at %v Hz, want 250 kHz", got)
	}
}

func TestToneSourceContinuity(t *testing.T) {
	// Two consecutive Fill calls must be phase-continuous.
	src := NewToneSource(100e3, 1e6, 1)
	a := src.Fill(make([]complex128, 64))
	b := src.Fill(make([]complex128, 64))
	// The sample after a[63] should advance by the same step.
	step := cmplx.Phase(a[1] / a[0])
	gap := cmplx.Phase(b[0] / a[63])
	if math.Abs(gap-step) > 1e-9 {
		t.Errorf("phase discontinuity: step %v vs gap %v", step, gap)
	}
}

func TestToneSourcePanics(t *testing.T) {
	for _, c := range []struct{ off, fs float64 }{{600e3, 1e6}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewToneSource(%v, %v) should panic", c.off, c.fs)
				}
			}()
			NewToneSource(c.off, c.fs, 1)
		}()
	}
}

// recurrenceTone is the per-sample reference synthesis: the phase
// recurrence through cmplx.Rect that orbit replay must reproduce bit for
// bit.
func recurrenceTone(offsetHz, sampleRateHz, amplitude float64, n int) []complex128 {
	out := make([]complex128, n)
	step := 2 * math.Pi * offsetHz / sampleRateHz
	phase := 0.0
	for i := range out {
		out[i] = cmplx.Rect(amplitude, phase)
		phase += step
		if phase > math.Pi {
			phase -= 2 * math.Pi
		} else if phase <= -math.Pi {
			phase += 2 * math.Pi
		}
	}
	return out
}

// Tones used by the bit-identity tests, with the orbit length
// NewToneSource must find (0 = no exact orbit within maxOrbit steps:
// ±137 kHz never returns to exactly 0).
var identityTones = []struct {
	offsetHz float64
	orbit    int
}{
	{500e3, 2}, {250e3, 4}, {125e3, 8}, {100e3, 10}, {-250e3, 4}, {137e3, 0}, {-137e3, 0},
}

// TestNegativeTonePhaseStaysWrapped pins the phase of negative-offset
// tones with no exact orbit inside (−π, π] over a long stream: an
// unwrapped phase grows without bound and costs the samples precision.
func TestNegativeTonePhaseStaysWrapped(t *testing.T) {
	for _, off := range []float64{-137e3, -499e3} {
		src := NewToneSource(off, 1e6, 1)
		if src.orbit != nil {
			t.Fatalf("%g Hz: has an orbit; the test needs the phase recurrence", off)
		}
		for i := 0; i < 10000; i++ {
			src.next()
			if !(src.phase > -math.Pi && src.phase <= math.Pi) {
				t.Fatalf("%g Hz: phase %v after %d samples, outside (−π, π]", off, src.phase, i+1)
			}
		}
	}
}

func TestToneOrbitReplaysRecurrence(t *testing.T) {
	for _, c := range identityTones {
		src := NewToneSource(c.offsetHz, 1e6, 0.7)
		if len(src.orbit) != c.orbit {
			t.Errorf("%g Hz: orbit of %d samples, want %d", c.offsetHz, len(src.orbit), c.orbit)
		}
		want := recurrenceTone(c.offsetHz, 1e6, 0.7, 4096)
		var got []complex128
		for _, n := range []int{1, 7, 255, 256, 3577} { // odd splits cross orbit boundaries
			got = append(got, src.Fill(make([]complex128, n))...)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%g Hz: sample %d = %v, recurrence gives %v", c.offsetHz, i, got[i], want[i])
			}
		}
	}
}

// sameBits reports whether two samples are identical bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestReceivedPowerMatchesPipeline checks the fused measurement against
// the buffered Fill→Scale→AddAWGN→Power pipeline bit for bit, for single
// blocks, runs of consecutive odd-length blocks, blocks interleaved with
// Fill, and zero noise, on orbit and non-orbit tones alike.
func TestReceivedPowerMatchesPipeline(t *testing.T) {
	h := complex(3.1e-4, -7.7e-4)
	for _, c := range identityTones {
		for _, noiseW := range []float64{0, 2.5e-9} {
			ref, fused := NewToneSource(c.offsetHz, 1e6, 1), NewToneSource(c.offsetHz, 1e6, 1)
			refRNG, fusedRNG := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
			for step, n := range []int{1, 7, 255, 256, 4096, 0, 7, 7, 255} {
				buf := make([]complex128, n)
				want := Power(AddAWGN(Scale(ref.Fill(buf), h), noiseW, refRNG))
				got := fused.ReceivedPower(n, h, noiseW, fusedRNG)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%g Hz noise %g step %d (n=%d): fused %v, pipeline %v",
						c.offsetHz, noiseW, step, n, got, want)
				}
				// Interleave a plain Fill on both: the two paths share
				// one phase state.
				a, b := ref.Fill(make([]complex128, 3)), fused.Fill(make([]complex128, 3))
				for i := range a {
					if !sameBits(a[i], b[i]) {
						t.Fatalf("%g Hz step %d: Fill after fused block diverged at %d", c.offsetHz, step, i)
					}
				}
			}
			if refRNG.Int63() != fusedRNG.Int63() {
				t.Errorf("%g Hz noise %g: RNG streams diverged", c.offsetHz, noiseW)
			}
		}
	}
}

func TestReceivedPowerPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		noiseW float64
	}{{"negative noise", 4, -1}, {"negative length", -1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", c.name)
				}
			}()
			NewToneSource(500e3, 1e6, 1).ReceivedPower(c.n, 1, c.noiseW, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestScale(t *testing.T) {
	buf := []complex128{1, 2, 3}
	Scale(buf, 2i)
	if buf[0] != 2i || buf[2] != 6i {
		t.Errorf("scale wrong: %v", buf)
	}
}

func TestAddAWGNPower(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]complex128, 200000)
	AddAWGN(buf, 0.01, rng)
	if got := Power(buf); math.Abs(got-0.01) > 0.0005 {
		t.Errorf("noise power = %v, want 0.01", got)
	}
}

func TestAddAWGNPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative noise power should panic")
		}
	}()
	AddAWGN(make([]complex128, 4), -1, rand.New(rand.NewSource(1)))
}

func TestPowerEmpty(t *testing.T) {
	if Power(nil) != 0 {
		t.Error("empty power should be 0")
	}
}

func TestRSSIEstimatorSmoothing(t *testing.T) {
	est := NewRSSIEstimator(0.5)
	if est.Value() != 0 {
		t.Error("initial value should be 0")
	}
	est.Update([]complex128{2}) // power 4
	if est.Value() != 4 {
		t.Errorf("first update should seed directly: %v", est.Value())
	}
	est.Update([]complex128{0}) // power 0
	if est.Value() != 2 {
		t.Errorf("smoothed value = %v, want 2", est.Value())
	}
	est.Reset()
	if est.Value() != 0 {
		t.Error("reset should clear")
	}
}

func TestRSSIEstimatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("alpha 0 should panic")
		}
	}()
	NewRSSIEstimator(0)
}

func TestGoertzelMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 256
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec := append([]complex128(nil), buf...)
	FFT(spec)
	fs := 1e6
	for _, bin := range []int{0, 3, 17, 100} {
		want := spec[bin] / complex(float64(n), 0)
		got := Goertzel(buf, float64(bin)*fs/float64(n), fs)
		if cmplx.Abs(got-want) > 1e-9 {
			t.Errorf("bin %d: goertzel %v vs fft %v", bin, got, want)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]complex128, 512)
	orig := make([]complex128, 512)
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = buf[i]
	}
	FFT(buf)
	IFFT(buf)
	for i := range buf {
		if cmplx.Abs(buf[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Σ|x|² == Σ|X|²/N.
	rng := rand.New(rand.NewSource(4))
	buf := make([]complex128, 256)
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	tp := Power(buf) * float64(len(buf))
	FFT(buf)
	var fp float64
	for _, x := range buf {
		fp += real(x)*real(x) + imag(x)*imag(x)
	}
	fp /= float64(len(buf))
	if math.Abs(tp-fp) > 1e-6*(1+tp) {
		t.Errorf("Parseval violated: %v vs %v", tp, fp)
	}
}

func TestFFTPanicsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT of length 3 should panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestFFTEmptyOK(t *testing.T) {
	FFT(nil) // must not panic
}

func TestHannWindowEndsNearZero(t *testing.T) {
	buf := make([]complex128, 64)
	for i := range buf {
		buf[i] = 1
	}
	HannWindow(buf)
	if cmplx.Abs(buf[0]) > 1e-12 || cmplx.Abs(buf[63]) > 1e-12 {
		t.Error("Hann endpoints should be ~0")
	}
	if math.Abs(real(buf[32])-1) > 0.01 {
		t.Errorf("Hann center = %v, want ≈1", buf[32])
	}
}

func TestPeakBinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted range should panic")
		}
	}()
	PeakBin(make([]complex128, 8), 5, 2)
}

func TestBinFrequencyNegativeHalf(t *testing.T) {
	// Bin N-1 is -fs/N.
	if got := BinFrequency(255, 256, 1e6); math.Abs(got+1e6/256) > 1e-9 {
		t.Errorf("bin 255 = %v Hz", got)
	}
	if got := BinFrequency(0, 256, 1e6); got != 0 {
		t.Errorf("bin 0 = %v Hz", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 511: 512, 512: 512, 513: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMeanAndStd(t *testing.T) {
	m, s := MeanAndStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || math.Abs(s-2) > 1e-12 {
		t.Errorf("mean/std = %v/%v, want 5/2", m, s)
	}
	m, s = MeanAndStd(nil)
	if m != 0 || s != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{-45, -44.9, -40, -35, -30.1, -100, 0}, -45, -30, 3)
	var total float64
	for _, v := range h {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("histogram mass = %v, want 100", total)
	}
	// Clipping: -100 lands in bin 0, 0 in the last bin.
	if h[0] < h[2] {
		t.Errorf("unexpected shape: %v", h)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad histogram shape should panic")
		}
	}()
	Histogram(nil, 0, 1, 0)
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = a[i] + b[i]
		}
		FFT(a)
		FFT(b)
		FFT(sum)
		for i := 0; i < n; i++ {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
