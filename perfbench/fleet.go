package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/fleet"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/units"
)

// fleetTransport wraps the worker's HTTP transport: it times each fleet
// call and measures one job cycle from the lease request that granted
// it to the acknowledged completion. The worker leases one job at a
// time, but its heartbeat goroutine calls concurrently, hence the lock.
type fleetTransport struct {
	base http.RoundTripper
	p    *pass

	mu         sync.Mutex
	leaseStart time.Time
	jobs       int
	job        string // the job being computed, named by its JobDesc
}

// computing records the job the worker is about to compute.
func (t *fleetTransport) computing(d experiments.JobDesc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.job = d.String()
}

// RoundTrip implements http.RoundTripper.
func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := req.URL.Path
	t.mu.Lock()
	rid := fmt.Sprintf("job%d", t.jobs)
	t.mu.Unlock()
	sp := t.p.tr.begin("fleet."+call[len("/fleet/"):], -1, rid)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.p.tr.end(sp)
	if err != nil {
		return resp, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch call {
	case "/fleet/lease":
		if resp.StatusCode == http.StatusOK {
			t.leaseStart = start
			if t.p.tr != nil {
				t.p.sample("fleet.lease_ms", ms(end.Sub(start)))
			}
		}
	case "/fleet/complete":
		t.p.op(t.job, ms(end.Sub(t.leaseStart)))
		t.jobs++
		if t.p.tr != nil {
			t.p.sample("fleet.complete_ms", ms(end.Sub(start)))
			t.p.sample("fleet.complete_bytes", float64(req.ContentLength))
		}
	}
	return resp, nil
}

// runFleet routes one `-all` × 10-seed row-sharded run through the
// fleet protocol: a fleet-only in-process llama-serve and one
// in-process fleet.Worker leasing jobs over loopback.
func runFleet(ctx context.Context, p *pass) error {
	h, err := startHarness(filepath.Join(p.workDir, "store"), service.Config{Fleet: true, FleetOnly: true})
	if err != nil {
		return err
	}
	defer h.close(ctx)
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	wire := &fleetTransport{base: base, p: p}
	var computeBusy time.Duration
	compute := func(ctx context.Context, d experiments.JobDesc) (experiments.ExternalResult, error) {
		wire.computing(d)
		sp := p.tr.begin("experiments.ComputeJob", -1, d.String())
		res, err := experiments.ComputeJob(ctx, d)
		dur := p.tr.end(sp)
		if p.tr != nil {
			computeBusy += dur
			p.sample("experiments.compute_job_ms", ms(dur))
		}
		return res, err
	}
	worker, err := fleet.NewWorker(fleet.WorkerConfig{
		Client:  &fleet.Client{Base: h.base, HTTP: &http.Client{Transport: wire, Timeout: 30 * time.Second}},
		Name:    "bench",
		Compute: compute,
	})
	if err != nil {
		return err
	}
	seeds := fleetSeeds(p.seed)
	if !p.begin() {
		return nil
	}
	before := metasurface.GlobalCacheStats()
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	stopped := make(chan struct{})
	started := false
	o := h.request(ctx, p, submitBody{Seeds: seeds, ShardRows: true}, "fleet", func() {
		started = true
		go func() {
			defer close(stopped)
			_ = worker.Run(wctx) // returns wctx.Err() once stopped
		}()
	})
	wall := p.finish()
	stop()
	if started {
		<-stopped
	}
	if o.err != nil {
		return o.err
	}
	ids := experiments.IDs()
	p.rec.Attempted = len(ids) * len(seeds)
	for _, i := range mismatches(tableDigests(o.body), p.ref.Sections) {
		p.fail(len(seeds), "%s: fleet CSV table differs from the uncached serial reference", sectionName(ids, i))
	}
	if p.tr == nil {
		return nil
	}
	p.cacheDelta(before)
	p.serviceSamples(o)
	if err := p.probeStore(h.st, ids, seeds); err != nil {
		return err
	}
	stats := h.srv.Fleet().Stats()
	p.scalar("fleet.granted", float64(stats.Granted))
	p.scalar("fleet.expired", float64(stats.Expired))
	p.scalar("fleet.duplicates", float64(stats.Duplicates))
	p.scalar("fleet.failed", float64(stats.Failed))
	p.scalar("fleet.idle_frac", 1-computeBusy.Seconds()/wall.Seconds())
	return p.probeMetasurface([]float64{units.DefaultCarrierHz})
}

// fleetReference digests the fleet run's expected bytes: the same spec
// computed by the serial engine.
func fleetReference(ctx context.Context, seed int64) (*refDigests, error) {
	rep, err := experiments.Execute(ctx, experiments.Options{Seeds: fleetSeeds(seed), Concurrency: 1})
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := rep.WriteTables(&csv, "csv"); err != nil {
		return nil, err
	}
	return &refDigests{Sections: tableDigests(csv.Bytes())}, nil
}
