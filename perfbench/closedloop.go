package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"strconv"
	"time"

	"github.com/llama-surface/llama/internal/control"
	"github.com/llama-surface/llama/internal/core"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

// Closed-loop sizing: Optimize calls per pass, and calls per checked
// digest chunk.
const (
	closedLoopOps   = 4000
	closedLoopChunk = 100
)

// closedLoop is a built closed-loop workload: one design, one system
// per deployment.
type closedLoop struct {
	deps    []deployment
	systems []*core.System
}

// buildClosedLoop builds the OptimizedFR4 design once and one core
// system per deployment. A traced pass p times each system build; p may
// be nil.
func buildClosedLoop(seed int64, p *pass) (*closedLoop, error) {
	cl := &closedLoop{deps: closedLoopDeployments(seed, closedLoopOps)}
	design := metasurface.OptimizedFR4Design(units.DefaultCarrierHz)
	cl.systems = make([]*core.System, len(cl.deps))
	for i, d := range cl.deps {
		start := time.Now()
		sys, err := core.NewSystem(d.config(design))
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", i, err)
		}
		sys.Scene.FreqHz = d.CarrierHz
		cl.systems[i] = sys
		if p != nil && p.tr != nil {
			p.sample("core.new_loop_us", us(time.Since(start)))
		}
	}
	return cl, nil
}

// opRecord appends one Optimize call's simulated outcome — best bias,
// best power (exact bits), switch count and virtual elapsed time — to
// the chunk digest.
func opRecord(h hash.Hash, res control.Result, sys *core.System) {
	fmt.Fprintf(h, "%016x %016x %016x %d %d\n",
		math.Float64bits(res.BestVx), math.Float64bits(res.BestVy),
		math.Float64bits(res.BestPowerDBm), res.Switches, sys.Clock.Now())
}

// chunkDigests runs every system's Optimize in order through optimize
// and digests the outcomes per chunk.
func (cl *closedLoop) chunkDigests(optimize func(i int, sys *core.System) (control.Result, error)) ([]string, error) {
	var out []string
	h := sha256.New()
	for i, sys := range cl.systems {
		res, err := optimize(i, sys)
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", i, err)
		}
		opRecord(h, res, sys)
		if (i+1)%closedLoopChunk == 0 || i == len(cl.systems)-1 {
			out = append(out, sumDigest(h))
			h.Reset()
		}
	}
	return out, nil
}

// runClosedLoop is the paper's real-time controller: Algorithm 1 (50
// measurements) on each seeded deployment, timed per call.
func runClosedLoop(ctx context.Context, p *pass) error {
	cl, err := buildClosedLoop(p.seed, p)
	if err != nil {
		return err
	}
	if !p.begin() {
		return nil
	}
	cfg := control.DefaultSweepConfig()
	before := metasurface.GlobalCacheStats()
	var fp fieldProbe
	got, err := cl.chunkDigests(func(i int, sys *core.System) (control.Result, error) {
		c0 := processCPU()
		var res control.Result
		var err error
		if p.tr == nil {
			res, err = sys.Optimize(ctx, cfg)
		} else {
			res, err = tracedOptimize(ctx, p, cfg, sys, fmt.Sprintf("op%d", i), &fp)
		}
		p.op(strconv.Itoa(i), ms(processCPU()-c0))
		return res, err
	})
	p.finish()
	if err != nil {
		return err
	}
	p.rec.Attempted = len(cl.systems)
	for _, i := range mismatches(got, p.ref.Sections) {
		lo := i * closedLoopChunk
		n := min(closedLoopChunk, len(cl.systems)-lo)
		p.fail(n, "Optimize calls %d..%d: simulated results differ from the uncached serial reference", lo, lo+n-1)
	}
	if p.tr == nil {
		return nil
	}
	// Leave the field-transfer probe's own lookups out of the loop's
	// counters, so they match an untraced pass exactly.
	before.Hits += fp.lookups.Hits
	before.Misses += fp.lookups.Misses
	p.cacheDelta(before)
	p.scalar("core.measure_missed", float64(fp.skipped))
	var carriers []float64
	seen := map[float64]bool{}
	for _, d := range cl.deps {
		if !seen[d.CarrierHz] {
			seen[d.CarrierHz] = true
			carriers = append(carriers, d.CarrierHz)
		}
	}
	return p.probeMetasurface(carriers)
}

// fieldProbe accumulates what the field-transfer probe of a traced
// pass did: its own response-cache lookups, and the measurements it
// skipped because they missed the cache.
type fieldProbe struct {
	lookups metasurface.CacheStats
	skipped int
}

// tracedOptimize runs Algorithm 1 exactly as System.Optimize does —
// control.CoarseToFine over the system's actuator and sensor — with
// each actuation and measurement wrapped in a span. After a measurement
// that hit the response cache on every lookup, it times the scene's
// field transfer on the same state as a separate probe, and
// signal.block_us is the measurement minus that. After a measurement
// that missed, the probe would find the keys the measurement just made
// resident and leave the miss cost in signal.block_us, so those
// measurements are counted in fp.skipped and not split.
func tracedOptimize(ctx context.Context, p *pass, cfg control.SweepConfig, sys *core.System, rid string, fp *fieldProbe) (control.Result, error) {
	act, sen := sys.Actuator(), sys.Sensor()
	root := p.tr.begin("core.Optimize", -1, rid)
	defer p.tr.end(root)
	wrappedAct := control.ActuatorFunc(func(vx, vy float64) error {
		sp := p.tr.begin("core.Actuate", root, rid)
		err := act.Apply(vx, vy)
		p.sample("core.actuate_us", us(p.tr.end(sp)))
		return err
	})
	wrappedSen := control.SensorFunc(func() (float64, error) {
		c0 := metasurface.GlobalCacheStats()
		sp := p.tr.begin("core.Measure", root, rid)
		v, err := sen.Measure()
		measure := p.tr.end(sp)
		c1 := metasurface.GlobalCacheStats()
		p.sample("core.measure_us", us(measure))
		if c1.Sub(c0).Misses > 0 {
			fp.skipped++
			return v, err
		}
		ft := p.tr.begin("channel.FieldTransfer", root, rid)
		_ = sys.Scene.FieldTransfer()
		field := p.tr.end(ft)
		d := metasurface.GlobalCacheStats().Sub(c1)
		fp.lookups.Hits += d.Hits
		fp.lookups.Misses += d.Misses
		p.sample("channel.field_transfer_us", us(field))
		p.sample("signal.block_us", us(measure-field))
		return v, err
	})
	return control.CoarseToFine(ctx, cfg, wrappedAct, wrappedSen)
}

// closedLoopReference digests the closed-loop outcomes of seed.
func closedLoopReference(ctx context.Context, seed int64) (*refDigests, error) {
	cl, err := buildClosedLoop(seed, nil)
	if err != nil {
		return nil, err
	}
	cfg := control.DefaultSweepConfig()
	got, err := cl.chunkDigests(func(_ int, sys *core.System) (control.Result, error) {
		return sys.Optimize(ctx, cfg)
	})
	if err != nil {
		return nil, err
	}
	return &refDigests{Sections: got}, nil
}
