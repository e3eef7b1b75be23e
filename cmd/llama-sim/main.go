// Command llama-sim runs the end-to-end networked LLAMA system on the
// loopback interface: an SCPI/TCP instrument server for the bias supply,
// the binary UDP telemetry leg from the receiver, and the Algorithm 1
// controller closing the loop — then reports the link improvement.
//
// Usage:
//
//	llama-sim                      default 48 cm mismatched bench
//	llama-sim -dist 0.36 -seed 3   other geometries
//	llama-sim -reflective          same-side deployment
//	llama-sim -cpuprofile cpu.pprof  write a CPU profile (-memprofile: heap profile at exit)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/llama-surface/llama"
	"github.com/llama-surface/llama/internal/channel"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/profile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "llama-sim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		dist       = flag.Float64("dist", 0.48, "Tx–Rx distance in meters")
		seed       = flag.Int64("seed", 1, "random seed")
		reflective = flag.Bool("reflective", false, "same-side reflective deployment")
		timeout    = flag.Duration("timeout", time.Minute, "wall-clock budget")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Parse()
	stop, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := stop(); err == nil {
			err = stopErr
		}
	}()

	cfg := llama.LoopConfig{Seed: *seed}
	if *reflective {
		cfg.Mode = metasurface.Reflective
		cfg.Geom = channel.Geometry{TxRx: 0.70, TxSurface: *dist, SurfaceRx: *dist}
	} else {
		cfg.Geom = channel.Geometry{TxRx: *dist, TxSurface: *dist / 2, SurfaceRx: *dist / 2}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	loop, err := llama.StartNetworkedLoop(ctx, cfg)
	if err != nil {
		return err
	}
	defer loop.Close()

	idn, err := loop.InstrumentID()
	if err != nil {
		return err
	}
	fmt.Printf("bias supply online: %s\n", idn)
	fmt.Printf("deployment: %v, Tx–Rx %.0f cm, mismatched polarization\n", cfg.Mode, cfg.Geom.TxRx*100)

	start := time.Now()
	res, err := loop.Optimize(ctx)
	if err != nil {
		return err
	}
	vx, vy := loop.Surface().Bias()
	fmt.Printf("sweep: %d measurements in %v wall / 1 s virtual\n", len(res.Samples), time.Since(start).Round(time.Millisecond))
	fmt.Printf("optimal bias: Vx=%.1f V, Vy=%.1f V → %.1f dBm\n", vx, vy, res.BestPowerDBm)
	fmt.Printf("link gain over no-surface baseline: %.1f dB (range ×%.1f)\n",
		loop.GainDB(), llama.RangeExtension(loop.GainDB()))
	if lost := loop.LostReports(); lost > 0 {
		fmt.Printf("telemetry: %d reports lost\n", lost)
	}
	return nil
}
