package main

import (
	"math/rand"

	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/core"
	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/metasurface"
)

// Every input of every workload is generated here from the --seed
// argument; the program under test only ever sees the generated values.

// reproduceSeeds returns the 20 experiment seeds of a reproduce pass.
// Seed 0 gives 1..20, the run `llama-bench -all -seeds 20` performs.
func reproduceSeeds(seed int64) []int64 { return seedRange(1+20*seed, 20) }

// fleetSeeds returns the 10 experiment seeds of a fleet pass.
func fleetSeeds(seed int64) []int64 { return seedRange(1+10*seed, 10) }

// seedRange returns n consecutive seeds from base.
func seedRange(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// channelPlan returns the 2.4 GHz centre frequencies the closed loop
// draws carriers from: 40 BLE channels (2402 + 2k MHz), 16 Zigbee
// channels (2405 + 5k MHz) and 13 Wi-Fi channels (2412 + 5k MHz).
func channelPlan() []float64 {
	var plan []float64
	for k := 0; k < 40; k++ {
		plan = append(plan, (2402+2*float64(k))*1e6)
	}
	for k := 0; k < 16; k++ {
		plan = append(plan, (2405+5*float64(k))*1e6)
	}
	for k := 0; k < 13; k++ {
		plan = append(plan, (2412+5*float64(k))*1e6)
	}
	return plan
}

// labScatterers is the multipath of every closed-loop deployment: the
// repo's rich-multipath setting of §5.1.2 (Fig. 19 draws
// channel.Laboratory with 12 scatterers).
const labScatterers = 12

// reflectiveTxRx is the fixed Tx–Rx separation of the reflective
// deployments (§5.2.1: Tx and Rx 70 cm apart on the same side of the
// surface).
const reflectiveTxRx = 0.70

// deployment is one seeded closed-loop deployment.
type deployment struct {
	Mode      metasurface.Mode
	Geom      channel.Geometry
	CarrierHz float64
	EnvSeed   int64
	Seed      int64
}

// closedLoopDeployments draws n deployments from the geometries the
// paper evaluates, as the experiments model them. Half are transmissive
// (§5.1.1: the surface midway on a Tx–Rx distance from Fig15Distances),
// half reflective (§5.2.1: a Tx–surface distance from Fig21Distances,
// Tx–Rx fixed at 70 cm). Each has its own Laboratory environment and a
// carrier drawn from the 2.4 GHz channel plan.
func closedLoopDeployments(seed int64, n int) []deployment {
	rng := rand.New(rand.NewSource(seed))
	plan := channelPlan()
	out := make([]deployment, n)
	for i := range out {
		d := deployment{Mode: metasurface.Transmissive}
		if rng.Intn(2) == 1 {
			d.Mode = metasurface.Reflective
			leg := experiments.Fig21Distances[rng.Intn(len(experiments.Fig21Distances))]
			d.Geom = channel.Geometry{TxRx: reflectiveTxRx, TxSurface: leg, SurfaceRx: leg}
		} else {
			txRx := experiments.Fig15Distances[rng.Intn(len(experiments.Fig15Distances))]
			d.Geom = channel.Geometry{TxRx: txRx, TxSurface: txRx / 2, SurfaceRx: txRx / 2}
		}
		d.CarrierHz = plan[rng.Intn(len(plan))]
		d.EnvSeed = rng.Int63()
		d.Seed = rng.Int63()
		out[i] = d
	}
	return out
}

// config returns the core configuration of d on the given design.
func (d deployment) config(design metasurface.Design) core.Config {
	return core.Config{
		Design: design,
		Mode:   d.Mode,
		Geom:   d.Geom,
		Env:    channel.Laboratory(d.EnvSeed, labScatterers),
		Seed:   d.Seed,
	}
}
