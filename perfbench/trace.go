package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	name   string
	start  time.Duration // since the tracer started
	end    time.Duration
	parent int32 // index of the enclosing span, -1 for none
	rid    string
}

// tracer keeps every span of a traced pass in memory; write dumps them
// when the pass ends. A nil *tracer records nothing, so untraced passes
// run the same call sites.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer starts an empty trace.
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, rid string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, rid: rid})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	return now - t.spans[i].start
}

// layerOf maps a span name ("store.Put") to its layer ("store").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// summarize derives per-layer self time — each span's duration minus the
// part of it its child spans cover — and the span count.
func (t *tracer) summarize(p *pass) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	covered := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] = append(covered[s.parent], s)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		self[layerOf(s.name)] += s.end - s.start - union(covered[i])
	}
	for layer, d := range self {
		p.scalar("self_ms."+layer, ms(d))
	}
	p.scalar("bench.spans", float64(len(spans)))
}

// union returns the total length covered by the children's intervals,
// which may overlap when they ran concurrently.
func union(children []span) time.Duration {
	children = slices.Clone(children)
	slices.SortFunc(children, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total, reach time.Duration
	for _, c := range children {
		lo := max(c.start, reach)
		if c.end > lo {
			total += c.end - lo
		}
		reach = max(reach, c.end)
	}
	return total
}

// write dumps the spans as tab-separated lines:
// index, parent, name, start ns, end ns, run/request ID.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "span\tparent\tname\tstart_ns\tend_ns\trid\n")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%s\n", i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.rid)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
