package experiments

import (
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

// optimizedFR4 is the paper's calibrated low-cost design, built at
// package init. Design is an immutable value, so sweep points may share
// it read-only and build their own (bias-mutable) Surface from it.
// Points that call OptimizedFR4Design themselves (abl-substrate,
// abl-layers) do not repeat its calibration: CalibrateLoadPitch runs
// each distinct calibration once per process and memoizes the pitch.
var optimizedFR4 = metasurface.OptimizedFR4Design(units.DefaultCarrierHz)
