package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Launcher limits: every child must end within childLimit; a run makes
// at least minPasses measured passes of each kind it needs and at least
// minSetups set-up samples, and at most maxSetups.
const (
	childLimit = 150 * time.Second
	minPasses  = 1
	minSetups  = 3
	maxSetups  = 7
)

// launcher runs one benchmark invocation: passes in child processes
// until the budget is spent, then the aggregate.
type launcher struct {
	w        workload
	seed     int64
	budget   time.Duration
	traced   bool
	buildDir string
}

// passResult is one child pass as the launcher saw it.
type passResult struct {
	rec    passRecord
	setupS float64
	rssMB  float64
	dur    time.Duration
}

// run executes the invocation and prints the metrics.
func (l *launcher) run(ctx context.Context) error {
	start := time.Now()
	if err := os.MkdirAll(l.buildDir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	refFile, err := l.reference(ctx, exe)
	if err != nil {
		return err
	}
	var plain, traced, setups []passResult
	kinds := []bool{false}
	if l.traced {
		kinds = []bool{false, true}
	}
	for i := 0; ; i++ {
		kind := kinds[i%len(kinds)]
		done := &plain
		if kind {
			done = &traced
		}
		if len(plain) >= minPasses && (!l.traced || len(traced) >= minPasses) {
			var estimate time.Duration
			if n := len(*done); n > 0 {
				estimate = (*done)[n-1].dur
			}
			if time.Since(start)+estimate > l.budget {
				break
			}
		}
		r, err := l.spawn(ctx, exe, kind, false, refFile)
		if err != nil {
			return err
		}
		*done = append(*done, r)
	}
	setups = append(setups, plain...)
	setups = append(setups, traced...)
	for len(setups) < maxSetups {
		if len(setups) >= minSetups && time.Since(start)+setups[len(setups)-1].dur > l.budget {
			break
		}
		r, err := l.spawn(ctx, exe, false, true, refFile)
		if err != nil {
			return err
		}
		setups = append(setups, r)
	}
	return l.report(plain, traced, setups)
}

// reference returns the path of a reference digest file for seeds that
// digests.json does not cover, computing it in a child process; "" when
// the committed digests apply.
func (l *launcher) reference(ctx context.Context, exe string) (string, error) {
	if l.w.reference == nil || hasCommitted(l.seed) {
		return "", nil
	}
	_, out, err := l.childCmd(ctx, exe, "-reference", "-workload", l.w.name, "-seed", strconv.FormatInt(l.seed, 10))
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	path := filepath.Join(l.buildDir, fmt.Sprintf("ref-%s-%d.json", l.w.name, l.seed))
	return path, os.WriteFile(path, lastLine(out.Bytes()), 0o644)
}

// spawn runs one pass in a fresh process.
func (l *launcher) spawn(ctx context.Context, exe string, traced, setupOnly bool, refFile string) (passResult, error) {
	args := []string{"-pass", "-workload", l.w.name, "-seed", strconv.FormatInt(l.seed, 10),
		"-build-dir", l.buildDir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if refFile != "" {
		args = append(args, "-ref", refFile)
	}
	spawned := time.Now()
	cmd, out, err := l.childCmd(ctx, exe, args...)
	if err != nil {
		return passResult{}, err
	}
	r := passResult{dur: time.Since(spawned)}
	if err := json.Unmarshal(lastLine(out.Bytes()), &r.rec); err != nil {
		return r, fmt.Errorf("pass record: %w", err)
	}
	if len(r.rec.OpKeys) != len(r.rec.OpMs) {
		return r, fmt.Errorf("pass record: %d operation keys for %d times", len(r.rec.OpKeys), len(r.rec.OpMs))
	}
	r.setupS = float64(r.rec.FirstOpUnixNs-spawned.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// childCmd runs the binary with args to completion under childLimit.
func (l *launcher) childCmd(ctx context.Context, exe string, args ...string) (*exec.Cmd, *bytes.Buffer, error) {
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return cmd, &out, fmt.Errorf("%s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	return cmd, &out, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	n     int
}

// report prints every metric as a text line, then the JSON summary.
func (l *launcher) report(plain, traced, setups []passResult) error {
	var e2e, layer []metric
	pick := func(rs []passResult, f func(passResult) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	ops := bestTimes(plain)
	wall := median(pick(plain, func(r passResult) float64 { return r.rec.WallS }))
	e2e = append(e2e,
		metric{"setup_s", median(pick(setups, func(r passResult) float64 { return r.setupS })), len(setups)},
		metric{"wall_s", wall, len(plain)},
		metric{"op_p50_ms", percentile(ops, 0.50), len(ops)},
		metric{"op_p99_ms", percentile(ops, 0.99), len(ops)},
		metric{"peak_rss_mb", median(pick(plain, func(r passResult) float64 { return r.rssMB })), len(plain)},
	)
	attempted, failed := 0, 0
	var problems []string
	for _, r := range append(append([]passResult(nil), plain...), traced...) {
		attempted += r.rec.Attempted
		failed += r.rec.Failed
		problems = append(problems, r.rec.Problems...)
	}
	extra := []metric{{"failed_frac", float64(failed) / float64(max(attempted, 1)), attempted}}
	if len(traced) > 0 {
		// Per-layer values come from the traced passes, plus those only
		// an untraced pass reports (the engine's own timings).
		layer = seriesMetrics(traced, func(string) bool { return true })
		have := map[string]bool{}
		for _, m := range layer {
			have[m.name] = true
		}
		layer = append(layer, seriesMetrics(plain, func(name string) bool { return !have[name] })...)
		tw := median(pick(traced, func(r passResult) float64 { return r.rec.WallS }))
		layer = append(layer,
			metric{"bench.trace_overhead_s", tw - wall, len(traced)},
			metric{"bench.trace_overhead_frac", (tw - wall) / wall, len(traced)})
	}
	fmt.Printf("# %s seed %d: %d untraced, %d traced, %d set-up samples\n", l.w.name, l.seed, len(plain), len(traced), len(setups))
	for _, set := range [][]metric{e2e, extra, layer} {
		for _, m := range set {
			fmt.Printf("%-40s %16.6g %-6s n=%d\n", m.name, m.value, unitOf(m.name), m.n)
		}
	}
	for _, p := range problems {
		fmt.Printf("# failed: %s\n", p)
	}
	metrics, err := jsonMetrics(e2e, layer, l.traced)
	if err != nil {
		return err
	}
	out := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// jsonMetrics selects the summary's metrics: the end-to-end set
// untraced, the per-layer set of BENCHMARK.json traced.
func jsonMetrics(e2e, layer []metric, traced bool) (map[string]any, error) {
	out := map[string]any{}
	if !traced {
		for _, m := range e2e {
			out[m.name] = map[string]any{"value": m.value, "unit": unitOf(m.name)}
		}
		return out, nil
	}
	byName := map[string]float64{}
	for _, m := range layer {
		byName[m.name] = m.value
	}
	for _, name := range perLayerJSON {
		v, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("traced passes did not measure %s", name)
		}
		out[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	return out, nil
}

// perLayerJSON are the per-layer metrics every workload measures, the
// ones BENCHMARK.json lists. Sampled ones report their median.
var perLayerJSON = []string{
	"metasurface.design_build_ms", "metasurface.jones_hit_ns", "metasurface.jones_miss_us",
	"metasurface.kernel_us", "metasurface.hits", "metasurface.misses", "metasurface.hit_ratio",
	"metasurface.table_entries", "bench.trace_overhead_frac",
}

// seriesMetrics aggregates the passes' named samples (p50 and p99 over
// all passes pooled, the bare name carrying the median) and scalars
// (median over passes) whose names keep accepts.
func seriesMetrics(rs []passResult, keep func(string) bool) []metric {
	samples := map[string][]float64{}
	scalars := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.rec.Samples {
			samples[k] = append(samples[k], v...)
		}
		for k, v := range r.rec.Scalars {
			scalars[k] = append(scalars[k], v)
		}
	}
	var out []metric
	for k, v := range samples {
		if keep(k) {
			out = append(out, metric{k, percentile(v, 0.5), len(v)}, metric{k + ".p99", percentile(v, 0.99), len(v)})
		}
	}
	for k, v := range scalars {
		if keep(k) {
			out = append(out, metric{k, median(v), len(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// unitOf derives a metric's unit from the suffix of its name segments.
func unitOf(name string) string {
	for _, seg := range strings.Split(name, ".") {
		for _, u := range []struct{ suffix, unit string }{
			{"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_mb", "MB"}, {"_bytes", "bytes"},
			{"_frac", "ratio"}, {"_ratio", "ratio"}, {"_s", "s"},
		} {
			if strings.HasSuffix(seg, u.suffix) {
				return u.unit
			}
		}
	}
	return "count"
}

// bestTimes returns, for each operation the passes repeat, its fastest
// repeat. Host contention on the reference VM comes and goes in bursts
// of milliseconds to minutes and slows the same work by up to 1.6×; the
// fastest of identical repeats is the uncontended cost as long as one
// repeat missed the bursts, where a pooled percentile takes in whatever
// share of the run they covered.
func bestTimes(rs []passResult) []float64 {
	best := map[string]float64{}
	for _, r := range rs {
		for i, k := range r.rec.OpKeys {
			if b, ok := best[k]; !ok || r.rec.OpMs[i] < b {
				best[k] = r.rec.OpMs[i]
			}
		}
	}
	out := make([]float64, 0, len(best))
	for _, v := range best {
		out = append(out, v)
	}
	return out
}

// percentile returns the nearest-rank q-quantile of vs (NaN when empty).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle of vs (the mean of the middle two when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
