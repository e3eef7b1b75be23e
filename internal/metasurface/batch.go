package metasurface

// The batched evaluation API. A sweep runner visits a whole axis of
// operating points per row — 21×21 bias pairs in a FullScan, seven
// biases per fig11 frequency — and JonesBatch answers the whole slice in
// one call. It loops the scalar lookups (axisAt/qwpAt) point by point and
// assembles through the same helpers as the scalar queries
// (jonesTransmissiveFrom / jonesReflectiveFrom), so there is one lookup
// path: a batch is bit-identical to calling the scalar path point by
// point with caching on or off, and in-batch duplicates compute once
// because the second lookup of a key hits the entry the first one
// stored. That equivalence is determinism invariant #11 in
// ARCHITECTURE.md, locked in under -race by batch_test.go.

import (
	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/units"
)

// BatchPoint is one operating point of a batched surface evaluation:
// the carrier frequency plus the X/Y bias pair. Biases are clamped to
// the design's control range exactly as SetBias clamps, so a batch
// point behaves like SetBias(VX, VY) followed by a scalar query.
type BatchPoint struct {
	// F is the evaluation frequency in Hz.
	F float64
	// VX, VY are the X- and Y-axis bias voltages in volts.
	VX, VY float64
}

// JonesBatch computes the surface's Jones matrix at every point,
// leaving the surface's own bias state untouched. dst is reused when it
// has capacity (pass nil to allocate); the resized slice is returned.
// Each dst[i] is bit-identical to
//
//	s.SetBias(pts[i].VX, pts[i].VY)
//	s.Jones(mode, pts[i].F)
//
// in every cache mode (invariant #11).
func (s *Surface) JonesBatch(mode Mode, pts []BatchPoint, dst []mat2.Mat) []mat2.Mat {
	if cap(dst) < len(pts) {
		dst = make([]mat2.Mat, len(pts))
	}
	dst = dst[:len(pts)]
	lo, hi := s.design.MinBiasV, s.design.MaxBiasV
	for i, p := range pts {
		xr := s.axisAt(AxisX, p.F, units.Clamp(p.VX, lo, hi))
		yr := s.axisAt(AxisY, p.F, units.Clamp(p.VY, lo, hi))
		if mode == Reflective {
			dst[i] = jonesReflectiveFrom(xr, yr, s.qwpAt(p.F))
		} else {
			dst[i] = jonesTransmissiveFrom(xr, yr, s.qwpAt(p.F))
		}
	}
	return dst
}
