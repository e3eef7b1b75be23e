// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time budget and prints every metric by name,
// with its unit and sample count, followed by one JSON summary line:
//
//	bash perfbench/run.sh --workload reproduce --seed 3 --seconds 25 --trace 0
//
// The launcher never measures in its own process. Every measured pass is
// a fresh child process (the same binary with -pass), so the
// process-global response tables, LUT grids and stat shards of one pass
// never carry over into the next. --trace 1 alternates untraced and
// traced passes: the untraced ones give the tracing overhead, the traced
// ones wrap the benchmark's own calls into each layer in spans and give
// the per-layer metrics. METRICS.md lists what each metric should move.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// run executes one pass in the current process.
	run func(ctx context.Context, p *pass) error
	// reference computes the digests a pass is checked against from the
	// uncached serial path; nil when the workload checks its outputs
	// another way.
	reference func(ctx context.Context, seed int64) (*refDigests, error)
}

// workloads is the registry, in the order BENCHMARK.json lists them.
var workloads = []workload{
	{name: "reproduce", run: runReproduce, reference: reproduceReference},
	{name: "closed-loop", run: runClosedLoop, reference: closedLoopReference},
	{name: "fleet", run: runFleet, reference: fleetReference},
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want reproduce, closed-loop or fleet)", name)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: reproduce, closed-loop or fleet")
		seed      = flag.Int64("seed", 0, "input seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 25, "measurement budget of the whole run")
		trace     = flag.Int("trace", 0, "1 = also run traced passes and print per-layer metrics")
		passMode  = flag.Bool("pass", false, "run one pass in this process and print its record (used by the launcher)")
		setupOnly = flag.Bool("setup-only", false, "with -pass: stop at the first timed operation")
		refFile   = flag.String("ref", "", "with -pass: reference digest file for a seed without committed digests")
		refMode   = flag.Bool("reference", false, "compute the uncached serial reference digests of -workload/-seed and print them")
		genFile   = flag.String("gen-digests", "", "regenerate the committed digest file at this path")
		buildDir  = flag.String("build-dir", ".bench_build", "directory for pass stores, reference files and traces")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unknown arguments %v", flag.Args()))
	}
	ctx := context.Background()
	if *genFile != "" {
		if err := generateDigests(ctx, *genFile, committedSeeds); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	switch {
	case *refMode:
		if err := printReference(ctx, w, *seed); err != nil {
			fatal(err)
		}
	case *passMode:
		if err := runPass(ctx, w, passOptions{seed: *seed, traced: *trace == 1, setupOnly: *setupOnly, refFile: *refFile, buildDir: *buildDir}); err != nil {
			fatal(err)
		}
	default:
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(errors.New("need --seconds ≥ 1 and --trace 0 or 1"))
		}
		dir, err := filepath.Abs(*buildDir)
		if err != nil {
			fatal(err)
		}
		l := &launcher{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, buildDir: dir}
		if err := l.run(ctx); err != nil {
			fatal(err)
		}
	}
}

// fatal reports err and exits non-zero without printing a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
