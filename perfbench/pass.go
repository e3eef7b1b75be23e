package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// passOptions configures one pass process.
type passOptions struct {
	seed      int64
	traced    bool
	setupOnly bool
	refFile   string
	buildDir  string
}

// passRecord is what one pass reports to the launcher, as one JSON line
// on its standard output.
type passRecord struct {
	// FirstOpUnixNs is the wall-clock time of the first timed operation;
	// the launcher subtracts the spawn time to get setup_s.
	FirstOpUnixNs int64 `json:"first_op_unix_ns"`
	// WallS is the timed phase.
	WallS float64 `json:"wall_s"`
	// OpKeys and OpMs hold one sample per operation of the workload's
	// headline operation (see METRICS.md), keyed by the operation. Every
	// pass of a run repeats the same operations.
	OpKeys []string  `json:"op_keys"`
	OpMs   []float64 `json:"op_ms"`
	// Attempted and Failed count checked operations.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems names the first few failed operations.
	Problems []string `json:"problems,omitempty"`
	// Samples are named per-operation samples (percentiles are taken
	// over all passes pooled); Scalars are one value per pass (the
	// launcher reports their median).
	Samples map[string][]float64 `json:"samples,omitempty"`
	Scalars map[string]float64   `json:"scalars,omitempty"`
}

// pass is the state of one pass process.
type pass struct {
	passOptions
	ref *refDigests
	tr  *tracer
	rec passRecord
	// workDir is this pass's private directory (stores), removed at the
	// end of the pass.
	workDir string
	// start marks the beginning of the timed phase.
	start time.Time
}

// maxProblems bounds the failure descriptions a pass reports.
const maxProblems = 5

// runPass runs one pass of w in this process and prints its record.
func runPass(ctx context.Context, w workload, o passOptions) error {
	p := &pass{passOptions: o, rec: passRecord{Samples: map[string][]float64{}, Scalars: map[string]float64{}}}
	if o.traced {
		p.tr = newTracer()
	}
	if w.reference != nil {
		ref, err := loadReference(w.name, o.seed, o.refFile)
		if err != nil {
			return err
		}
		p.ref = ref
	}
	dir, err := os.MkdirTemp(o.buildDir, "pass-")
	if err != nil {
		return fmt.Errorf("work directory: %w", err)
	}
	p.workDir = dir
	defer os.RemoveAll(dir)
	if err := w.run(ctx, p); err != nil {
		return fmt.Errorf("%s pass: %w", w.name, err)
	}
	if p.rec.FirstOpUnixNs == 0 {
		return fmt.Errorf("%s pass: no timed operation", w.name)
	}
	if p.tr != nil && !o.setupOnly {
		p.tr.summarize(p)
		if err := p.tr.write(filepath.Join(o.buildDir, "trace", w.name+".tsv")); err != nil {
			return err
		}
	}
	out, err := json.Marshal(&p.rec)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// begin marks the first timed operation. It reports false when the pass
// is a set-up-only pass, which must stop there.
func (p *pass) begin() bool {
	p.start = time.Now()
	p.rec.FirstOpUnixNs = p.start.UnixNano()
	return !p.setupOnly
}

// finish ends the timed phase and returns its wall time.
func (p *pass) finish() time.Duration {
	wall := time.Since(p.start)
	p.rec.WallS = wall.Seconds()
	return wall
}

// processCPU returns the CPU time this process has used so far
// (CLOCK_PROCESS_CPUTIME_ID): every thread, the Go runtime's
// background GC workers and any helper goroutines included. A serial
// pass runs nothing else, so the CPU time between two readings is the
// whole cost of the operation between them. Unlike the wall clock, it
// is not inflated when the host deschedules the machine, which moved
// wall-clock operation times by 20–35% between runs on the reference VM.
func processCPU() time.Duration {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// op records one operation's time.
func (p *pass) op(key string, v float64) {
	p.rec.OpKeys = append(p.rec.OpKeys, key)
	p.rec.OpMs = append(p.rec.OpMs, v)
}

// sample appends one sample to a named series.
func (p *pass) sample(name string, v float64) { p.rec.Samples[name] = append(p.rec.Samples[name], v) }

// scalar sets a named per-pass value.
func (p *pass) scalar(name string, v float64) { p.rec.Scalars[name] = v }

// fail counts n failed operations and remembers why.
func (p *pass) fail(n int, format string, args ...any) {
	p.rec.Failed += n
	if len(p.rec.Problems) < maxProblems {
		p.rec.Problems = append(p.rec.Problems, fmt.Sprintf(format, args...))
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
