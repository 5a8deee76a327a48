package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// workCounts pins the amount of work a pass did (Report totals).
type workCounts struct {
	Derivations, Stored, Retracted int64
}

// pass is one fresh run of a workload: build, converge, script, check.
// Its fields are the pass's measurements; a workload fills them in.
type pass struct {
	w    *workload
	seed int64
	// full passes run the workload's script after convergence; short
	// ones stop at the first fixpoint.
	full bool
	// tr is nil on untraced passes. Every hook the benchmark installs
	// (metrics registry, transport/store wrappers, handler middleware)
	// is installed only when it is set.
	tr *tracer

	setup, converge time.Duration
	events          []float64 // reconvergence latencies, ms
	wireBytes       int64
	allocBytes      uint64
	heapPeak        uint64

	attempted, failed int
	work              workCounts
	tables            string // canonical final tables, compared across passes

	// extra holds workload-specific figures of untraced passes;
	// layer holds the per-layer metrics of traced passes.
	extra map[string]float64
	layer map[string]float64

	allocStart uint64
	excluded   uint64
}

func newPass(w *workload, seed int64, tr *tracer, full bool) *pass {
	return &pass{w: w, seed: seed, tr: tr, full: full, extra: map[string]float64{}, layer: map[string]float64{}}
}

// run executes the pass from a collected heap (a pass process runs one
// pass, so this only clears the start-up garbage).
func (p *pass) run() error {
	runtime.GC()
	return p.w.pass(p)
}

// measured is the pass's timed work in seconds: set-up, convergence
// and every event. The traced run's overhead compares it across passes.
func (p *pass) measured() float64 {
	t := p.setup.Seconds() + p.converge.Seconds()
	for _, ms := range p.events {
		t += ms / 1e3
	}
	return t
}

// op counts one attempted operation and, when err is set, its failure.
func (p *pass) op(err error) error {
	p.attempted++
	if err != nil {
		p.failed++
	}
	return err
}

// setupDone marks the end of set-up: the heap is collected and sampled
// (set-up counts toward the peak), and allocation counting starts.
func (p *pass) setupDone() {
	p.collectHeap()
	p.allocStart = allocated()
	p.excluded = 0
}

// finish stops allocation counting and samples the final live heap.
func (p *pass) finish() {
	p.allocBytes = allocated() - p.allocStart - p.excluded
	p.collectHeap()
}

// aside runs benchmark bookkeeping (oracles, script choices, snapshots)
// whose allocations must not be charged to the program.
func (p *pass) aside(f func() error) error {
	before := allocated()
	err := f()
	p.excluded += allocated() - before
	return err
}

// collectHeap runs a full collection and records the live heap it
// found. Passes call it, outside timed work, at the end of set-up, at
// convergence and at the end of the script: the live heap at fixed
// points, which sampling after background collections would leave to GC
// timing.
func (p *pass) collectHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > p.heapPeak {
		p.heapPeak = v
	}
}

func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// errOracle marks a failed correctness check, as opposed to a failed
// operation.
var errOracle = errors.New("oracle")

func oracleError(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errOracle, fmt.Sprintf(format, args...))
}
