package main

import (
	"time"

	"github.com/llama-surface/llama/internal/mat2"
	"github.com/llama-surface/llama/internal/metasurface"
)

// cacheDelta records the response-cache lookups since before, and the
// resident table size, as the metasurface layer's counters.
func (p *pass) cacheDelta(before metasurface.CacheStats) {
	d := metasurface.GlobalCacheStats().Sub(before)
	p.scalar("metasurface.hits", float64(d.Hits))
	p.scalar("metasurface.misses", float64(d.Misses))
	p.scalar("metasurface.hit_ratio", d.HitRate())
	entries := 0
	for _, t := range metasurface.ExportResponseTables() {
		entries += t.Entries()
	}
	p.scalar("metasurface.table_entries", float64(entries))
}

// Probe sizes: enough calls that each sample is well above clock
// resolution, few enough that the probes stay a small part of a pass.
const (
	probeCarriers  = 4
	hitBatches     = 20
	hitBatchCalls  = 1000
	missProbeCalls = 200
)

// sinkMat keeps probe results live so the calls cannot be elided.
var sinkMat mat2.Mat

// probeMetasurface times the metasurface layer's public entry points on
// the workload's carriers, after the workload has run: building the
// three designs, Surface.Jones on resident keys (hits), on first-touch
// keys (misses) and with caching off (the bare kernel).
func (p *pass) probeMetasurface(carriers []float64) error {
	if len(carriers) > probeCarriers {
		carriers = carriers[:probeCarriers]
	}
	designs := []func(float64) metasurface.Design{
		metasurface.OptimizedFR4Design, metasurface.NaiveFR4Design, metasurface.Rogers5880Design,
	}
	for _, f := range carriers {
		for _, build := range designs {
			sp := p.tr.begin("metasurface.DesignBuild", -1, "probe")
			build(f)
			p.sample("metasurface.design_build_ms", ms(p.tr.end(sp)))
		}
	}
	f := carriers[0]
	s, err := metasurface.New(metasurface.OptimizedFR4Design(f))
	if err != nil {
		return err
	}
	s.SetBias(12, 18)
	sinkMat = s.Jones(metasurface.Transmissive, f)
	for b := 0; b < hitBatches; b++ {
		start := time.Now()
		for i := 0; i < hitBatchCalls; i++ {
			sinkMat = s.Jones(metasurface.Transmissive, f)
		}
		p.sample("metasurface.jones_hit_ns", float64(time.Since(start).Nanoseconds())/hitBatchCalls)
	}
	// First-touch keys: bias pairs no workload uses (exact float keys).
	probeFresh := func(name string, base float64) {
		for i := 0; i < missProbeCalls; i++ {
			s.SetBias(base+float64(i)*0.0131, base+float64(i)*0.0173)
			start := time.Now()
			sinkMat = s.Jones(metasurface.Transmissive, f)
			p.sample(name, us(time.Since(start)))
		}
	}
	probeFresh("metasurface.jones_miss_us", 3.000123)
	metasurface.SetCaching(false)
	probeFresh("metasurface.kernel_us", 4.000321)
	metasurface.SetCaching(true)
	return nil
}
