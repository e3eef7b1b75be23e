package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

// harness is an in-process llama-serve: a service.Server over a fresh
// store, served on a loopback listener, plus the client the benchmark
// drives it with.
type harness struct {
	st     *store.Store
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startHarness opens a store in dir and serves cfg over loopback HTTP.
func startHarness(dir string, cfg service.Config) (*harness, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg.Store = st
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	h := &harness{
		st:     st,
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 512}},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, drains the service and waits for both.
func (h *harness) close(ctx context.Context) error {
	h.client.CloseIdleConnections()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := h.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// submitBody is the POST /runs request.
type submitBody struct {
	Seeds     []int64 `json:"seeds"`
	ShardRows bool    `json:"shard_rows,omitempty"`
}

// runStatus is the part of the service's run status the benchmark reads.
type runStatus struct {
	ID             string `json:"id"`
	Status         string `json:"status"`
	Error          string `json:"error"`
	CreatedUnixNs  int64  `json:"created_unix_ns"`
	FinishedUnixNs int64  `json:"finished_unix_ns"`
}

// submit posts a run and returns its initial status.
func (h *harness) submit(ctx context.Context, body submitBody) (runStatus, error) {
	var st runStatus
	b, err := json.Marshal(body)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/runs", bytes.NewReader(b))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, fmt.Errorf("POST /runs: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("POST /runs: %w", err)
	}
	return st, nil
}

// waitDone follows the run's event stream until its terminal status
// frame, which the service pushes as soon as the run finishes.
func (h *harness) waitDone(ctx context.Context, id string) (runStatus, error) {
	var st runStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/runs/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /runs/%s/events: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, fmt.Errorf("events of %s: %w", id, err)
			}
			if st.Status != service.StatusRunning {
				if st.Status != service.StatusDone {
					return st, fmt.Errorf("run %s ended %s: %s", id, st.Status, st.Error)
				}
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("events of %s ended before a terminal status", id)
}

// result fetches a done run's CSV tables.
func (h *harness) result(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/runs/"+id+"/result?format=csv", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /runs/%s/result: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// Request limits: one request may take requestLimit end to end; the
// store probe times at most storeProbeMax cells.
const (
	requestLimit  = 30 * time.Second
	storeProbeMax = 100
)

// outcome is one request's measured life.
type outcome struct {
	submit   time.Duration
	result   time.Duration
	status   runStatus
	doneSeen time.Time
	body     []byte
	err      error
}

// request performs one request: submit body, follow the run to done,
// fetch the result. submitted runs once the run is accepted.
func (h *harness) request(ctx context.Context, p *pass, body submitBody, rid string, submitted func()) outcome {
	ctx, cancel := context.WithTimeout(ctx, requestLimit)
	defer cancel()
	var o outcome
	root := p.tr.begin("bench.Request", -1, rid)
	defer p.tr.end(root)
	sp := p.tr.begin("service.Submit", root, rid)
	t0 := time.Now()
	st, err := h.submit(ctx, body)
	o.submit = time.Since(t0)
	p.tr.end(sp)
	if err != nil {
		o.err = err
		return o
	}
	submitted()
	sp = p.tr.begin("service.Wait", root, rid)
	o.status, o.err = h.waitDone(ctx, st.ID)
	o.doneSeen = time.Now()
	p.tr.end(sp)
	if o.err != nil {
		return o
	}
	sp = p.tr.begin("service.Result", root, rid)
	t0 = time.Now()
	o.body, o.err = h.result(ctx, st.ID)
	o.result = time.Since(t0)
	p.tr.end(sp)
	return o
}

// serviceSamples records the service layer's view of one successful
// request.
func (p *pass) serviceSamples(o outcome) {
	p.sample("service.submit_ms", ms(o.submit))
	p.sample("service.result_ms", ms(o.result))
	p.sample("service.run_ms", float64(o.status.FinishedUnixNs-o.status.CreatedUnixNs)/1e6)
	p.sample("service.wait_overhead_ms", float64(o.doneSeen.UnixNano()-o.status.FinishedUnixNs)/1e6)
}

// probeStore times the store layer on cells a run persisted: Get from
// the service's store, then Put into a second store and Sync it, as
// the service does after each run. It probes at most storeProbeMax
// cells, taken in ID-then-seed order.
func (p *pass) probeStore(src *store.Store, ids []string, seeds []int64) error {
	dst, err := store.Open(filepath.Join(p.workDir, "probe"))
	if err != nil {
		return err
	}
	n := 0
	for _, id := range ids {
		for _, seed := range seeds {
			if n == storeProbeMax {
				return nil
			}
			n++
			if err := p.probeCell(src, dst, id, seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeCell times one cell's Get, Put and Sync.
func (p *pass) probeCell(src, dst *store.Store, id string, seed int64) error {
	rid := fmt.Sprintf("%s/seed%d", id, seed)
	sp := p.tr.begin("store.Get", -1, rid)
	rec, err := src.Get(id, seed)
	p.sample("store.get_ms", ms(p.tr.end(sp)))
	if err != nil {
		return err
	}
	sp = p.tr.begin("store.Put", -1, rid)
	err = dst.Put(rec)
	p.sample("store.put_ms", ms(p.tr.end(sp)))
	if err != nil {
		return err
	}
	sp = p.tr.begin("store.Sync", -1, rid)
	err = dst.Sync()
	p.sample("store.sync_ms", ms(p.tr.end(sp)))
	if err != nil {
		return err
	}
	if fi, err := os.Stat(rec.Path); err == nil {
		p.sample("store.cell_bytes", float64(fi.Size()))
	}
	return nil
}
