// Package signal provides the complex-baseband DSP used by the simulated
// receivers: tone generation (the paper's USRP transmitter sends a
// continuous cosine at a 500 kHz offset), AWGN, power/RSSI estimation, and
// spectral analysis (Goertzel and a radix-2 FFT) for the sensing pipeline.
//
// All buffers are []complex128 at an explicit sample rate. Functions that
// stream samples accept caller-provided buffers so hot paths stay
// allocation-free (gopacket's SerializeBuffer discipline).
package signal

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/llama-surface/llama/internal/units"
)

// maxOrbit bounds the phase-recurrence steps NewToneSource runs looking
// for an exact orbit; tones whose phase does not return within it are
// synthesized sample by sample.
const maxOrbit = 16

// ToneSource generates a complex exponential at a fixed baseband offset —
// the paper's "cosine signal over 500 KHz" as seen after downconversion.
// Offset, rate and amplitude are fixed at construction: the sample orbit
// is derived from them.
type ToneSource struct {
	amplitude float64
	step      float64 // phase advance per sample

	// orbit is one exact period of samples when the phase recurrence
	// returns bit-exactly to 0 within maxOrbit steps (2 samples for the
	// paper's 500 kHz tone at 1 MHz); pos indexes the next one. When
	// orbit is nil, phase carries the recurrence instead.
	orbit []complex128
	pos   int
	phase float64
}

// NewToneSource returns a tone source; it panics when the tone does not
// satisfy Nyquist at the given sample rate.
func NewToneSource(offsetHz, sampleRateHz, amplitude float64) *ToneSource {
	if sampleRateHz <= 0 {
		panic("signal: non-positive sample rate")
	}
	// A complex tone at exactly fs/2 is representable (it alternates
	// sign), which is precisely the paper's 500 kHz tone at 1 MHz
	// sampling; only beyond that does it alias.
	if math.Abs(offsetHz) > sampleRateHz/2 {
		panic(fmt.Sprintf("signal: tone %g Hz violates Nyquist at %g Hz", offsetHz, sampleRateHz))
	}
	t := &ToneSource{amplitude: amplitude, step: 2 * math.Pi * offsetHz / sampleRateHz}
	// Run the recurrence once; if it comes back to exactly 0 the samples
	// repeat exactly, and replaying them is bit-identical to Rect.
	var orbit [maxOrbit]complex128
	for k := range maxOrbit {
		orbit[k] = cmplx.Rect(amplitude, t.phase)
		t.advance()
		if math.Float64bits(t.phase) == 0 {
			t.orbit = append([]complex128(nil), orbit[:k+1]...)
			break
		}
	}
	t.phase = 0
	return t
}

// advance steps the phase recurrence by one sample, wrapping the phase
// into (−π, π] on both sides so a negative-offset tone stays bounded.
func (t *ToneSource) advance() {
	t.phase += t.step
	if t.phase > math.Pi {
		t.phase -= 2 * math.Pi
	} else if t.phase <= -math.Pi {
		t.phase += 2 * math.Pi
	}
}

// next returns the next tone sample and advances the orbit or the phase.
func (t *ToneSource) next() complex128 {
	if t.orbit == nil {
		x := cmplx.Rect(t.amplitude, t.phase)
		t.advance()
		return x
	}
	x := t.orbit[t.pos]
	if t.pos++; t.pos == len(t.orbit) {
		t.pos = 0
	}
	return x
}

// Fill writes the next len(dst) samples into dst and returns dst.
func (t *ToneSource) Fill(dst []complex128) []complex128 {
	for i := range dst {
		dst[i] = t.next()
	}
	return dst
}

// ReceivedPower returns the mean power of the next n samples after a
// flat channel h and circular Gaussian noise of total power noiseW drawn
// from rng. It is bit for bit Power(AddAWGN(Scale(t.Fill(buf), h),
// noiseW, rng)) for a length-n buf — same samples, same noise draws in
// the same order, same summation order — without the buffer, and it
// advances the same state as Fill. It panics for negative noiseW or n.
func (t *ToneSource) ReceivedPower(n int, h complex128, noiseW float64, rng *rand.Rand) float64 {
	if noiseW < 0 {
		panic("signal: negative noise power")
	}
	if n < 0 {
		panic("signal: negative sample count")
	}
	if n == 0 {
		return 0
	}
	sigma := math.Sqrt(noiseW / 2)
	var s float64
	if t.orbit == nil {
		for range n {
			s += noisyPower(t.next()*h, sigma, rng)
		}
		return s / float64(n)
	}
	var scaled [maxOrbit]complex128
	for j, x := range t.orbit {
		scaled[j] = x * h
	}
	pos, k := t.pos, len(t.orbit)
	for range n {
		s += noisyPower(scaled[pos], sigma, rng)
		if pos++; pos == k {
			pos = 0
		}
	}
	t.pos = pos
	return s / float64(n)
}

// noisyPower adds one AddAWGN noise draw to x and returns its power, in
// the operation order AddAWGN and Power use.
func noisyPower(x complex128, sigma float64, rng *rand.Rand) float64 {
	x += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	return real(x)*real(x) + imag(x)*imag(x)
}

// Scale multiplies every sample by the complex channel response h in
// place and returns buf — applying a flat-fading channel to a block.
func Scale(buf []complex128, h complex128) []complex128 {
	for i := range buf {
		buf[i] *= h
	}
	return buf
}

// AddAWGN adds circular complex Gaussian noise with total power noiseW to
// each sample in place, using rng, and returns buf.
func AddAWGN(buf []complex128, noiseW float64, rng *rand.Rand) []complex128 {
	if noiseW < 0 {
		panic("signal: negative noise power")
	}
	sigma := math.Sqrt(noiseW / 2)
	for i := range buf {
		buf[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return buf
}

// Power returns the mean sample power of buf; zero for an empty buffer.
func Power(buf []complex128) float64 {
	if len(buf) == 0 {
		return 0
	}
	var s float64
	for _, x := range buf {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s / float64(len(buf))
}

// RSSIEstimator accumulates block power estimates with exponential
// smoothing, the way a cheap receiver's RSSI register behaves.
type RSSIEstimator struct {
	// Alpha is the smoothing factor in (0, 1]; 1 = no smoothing.
	Alpha float64

	value float64
	init  bool
}

// NewRSSIEstimator returns an estimator; it panics for alpha outside (0,1].
func NewRSSIEstimator(alpha float64) *RSSIEstimator {
	if alpha <= 0 || alpha > 1 {
		panic("signal: RSSI alpha must be in (0,1]")
	}
	return &RSSIEstimator{Alpha: alpha}
}

// Update folds a block of samples into the estimate and returns the new
// smoothed power in watts.
func (r *RSSIEstimator) Update(buf []complex128) float64 {
	p := Power(buf)
	if !r.init {
		r.value = p
		r.init = true
		return r.value
	}
	r.value = r.Alpha*p + (1-r.Alpha)*r.value
	return r.value
}

// Value returns the current smoothed power in watts (0 before any update).
func (r *RSSIEstimator) Value() float64 { return r.value }

// ValueDBm returns the current estimate in dBm.
func (r *RSSIEstimator) ValueDBm() float64 { return units.WattsToDBm(r.value) }

// Reset clears the estimator state.
func (r *RSSIEstimator) Reset() { r.value, r.init = 0, false }

// Goertzel evaluates the DFT of buf at a single frequency binHz given the
// sample rate, returning the complex bin value normalized by the buffer
// length. It is the cheap way to track one tone (the receiver's 500 kHz
// carrier) without a full FFT.
func Goertzel(buf []complex128, binHz, sampleRateHz float64) complex128 {
	if sampleRateHz <= 0 {
		panic("signal: non-positive sample rate")
	}
	n := len(buf)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * binHz / sampleRateHz
	e := cmplx.Rect(1, -w)
	var acc complex128
	ph := complex(1, 0)
	for _, x := range buf {
		acc += x * ph
		ph *= e
	}
	return acc / complex(float64(n), 0)
}

// FFT computes the in-place radix-2 decimation-in-time FFT of buf. The
// length must be a power of two; it panics otherwise. The transform is
// unnormalized (inverse = conj–FFT–conj/N).
func FFT(buf []complex128) {
	n := len(buf)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("signal: FFT length must be a power of two")
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := buf[i+j]
				v := buf[i+j+length/2] * w
				buf[i+j] = u + v
				buf[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// IFFT computes the unnormalized-companion inverse FFT of buf in place
// (including the 1/N factor, so IFFT(FFT(x)) == x).
func IFFT(buf []complex128) {
	for i := range buf {
		buf[i] = cmplx.Conj(buf[i])
	}
	FFT(buf)
	n := complex(float64(len(buf)), 0)
	for i := range buf {
		buf[i] = cmplx.Conj(buf[i]) / n
	}
}

// HannWindow applies a Hann window in place and returns buf.
func HannWindow(buf []complex128) []complex128 {
	n := len(buf)
	if n < 2 {
		return buf
	}
	for i := range buf {
		w := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		buf[i] *= complex(w, 0)
	}
	return buf
}

// PeakBin returns the index and magnitude of the largest-magnitude bin in
// spectrum[lo:hi). It panics on an empty or inverted range.
func PeakBin(spectrum []complex128, lo, hi int) (int, float64) {
	if lo < 0 || hi > len(spectrum) || lo >= hi {
		panic("signal: bad peak search range")
	}
	best, bestMag := lo, cmplx.Abs(spectrum[lo])
	for i := lo + 1; i < hi; i++ {
		if m := cmplx.Abs(spectrum[i]); m > bestMag {
			best, bestMag = i, m
		}
	}
	return best, bestMag
}

// BinFrequency converts an FFT bin index to hertz for an n-point
// transform at the given sample rate, mapping upper-half bins to negative
// frequencies.
func BinFrequency(bin, n int, sampleRateHz float64) float64 {
	if n <= 0 {
		panic("signal: non-positive FFT size")
	}
	if bin >= n/2 {
		bin -= n
	}
	return float64(bin) * sampleRateHz / float64(n)
}

// NextPow2 returns the smallest power of two ≥ n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// MeanAndStd returns the mean and standard deviation of xs (population
// convention); both zero for an empty slice.
func MeanAndStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the per-bin probability mass (percent, summing to ≈100 for samples in
// range). Out-of-range samples are clipped into the edge bins, matching
// how Fig. 2/20's PDFs are plotted. It panics for nbins ≤ 0 or hi ≤ lo.
func Histogram(xs []float64, lo, hi float64, nbins int) []float64 {
	if nbins <= 0 || hi <= lo {
		panic("signal: bad histogram shape")
	}
	h := make([]float64, nbins)
	if len(xs) == 0 {
		return h
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		h[i]++
	}
	scale := 100 / float64(len(xs))
	for i := range h {
		h[i] *= scale
	}
	return h
}
