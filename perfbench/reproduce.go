package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/units"
)

// runReproduce is the paper-regeneration run: the 540 cells of
// `llama-bench -all -seeds 20` (27 experiments × 20 seeds), serial and
// cold, one experiments.Run per cell so each cell is timed on its own.
// A traced pass wraps each call in a span.
func runReproduce(ctx context.Context, p *pass) error {
	seeds := reproduceSeeds(p.seed)
	ids := experiments.IDs()
	if !p.begin() {
		return nil
	}
	p.rec.Attempted = len(ids) * len(seeds)
	before := metasurface.GlobalCacheStats()
	var got []string
	for _, id := range ids {
		h := sha256.New()
		var busy time.Duration
		for _, s := range seeds {
			key := fmt.Sprintf("%s/seed%d", id, s)
			sp := p.tr.begin("experiments.Run", -1, key)
			c0, t0 := processCPU(), time.Now()
			res, err := experiments.Run(ctx, id, s)
			cpu, wall := processCPU()-c0, time.Since(t0)
			p.tr.end(sp)
			if err != nil {
				return err
			}
			busy += wall
			p.op(key, ms(cpu))
			p.sample("experiments.cell_ms", ms(wall))
			if err := res.WriteCSV(h); err != nil {
				return err
			}
		}
		p.scalar("experiments.busy_s."+id, busy.Seconds())
		got = append(got, sumDigest(h))
	}
	p.finish()
	for _, i := range mismatches(got, p.ref.Sections) {
		p.fail(len(seeds), "%s: CSV of its cells differs from the uncached serial reference", sectionName(ids, i))
	}
	if p.tr == nil {
		return nil
	}
	p.cacheDelta(before)
	return p.probeMetasurface([]float64{units.DefaultCarrierHz})
}

// sectionName names section i of an ID-ordered table stream.
func sectionName(ids []string, i int) string {
	if i < len(ids) {
		return ids[i]
	}
	return fmt.Sprintf("table %d", i)
}

// reproduceReference digests, per experiment, the CSVs of its cells.
func reproduceReference(ctx context.Context, seed int64) (*refDigests, error) {
	ref := &refDigests{}
	for _, id := range experiments.IDs() {
		var cells bytes.Buffer
		for _, s := range reproduceSeeds(seed) {
			res, err := experiments.Run(ctx, id, s)
			if err != nil {
				return nil, err
			}
			if err := res.WriteCSV(&cells); err != nil {
				return nil, err
			}
		}
		ref.Sections = append(ref.Sections, digest(cells.Bytes()))
	}
	return ref, nil
}
