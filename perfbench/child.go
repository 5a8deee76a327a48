package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Every pass runs in a process of its own, started from this binary with
// --pass KIND:INDEX, so that no pass inherits another's heap, caches or
// collector state: each sees the process a user's single run would. The
// child prints one passResult as the last line of its standard output.

// Pass kinds: a short pass stops at the first fixpoint, a full pass runs
// the workload's script, and a traced pass is a full pass with every
// tracing hook installed.
const (
	kindShort  = "short"
	kindFull   = "full"
	kindTraced = "traced"
)

// passResult is what a pass process reports to the run.
type passResult struct {
	SetupS     float64            `json:"setup_s"`
	ConvergeS  float64            `json:"converge_s"`
	EventsMs   []float64          `json:"events_ms"`
	WireBytes  int64              `json:"wire_bytes"`
	AllocBytes uint64             `json:"alloc_bytes"`
	HeapPeak   uint64             `json:"heap_peak_bytes"`
	MeasuredS  float64            `json:"measured_s"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Work       workCounts         `json:"work"`
	Tables     string             `json:"tables"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	SpanFile   string             `json:"span_file,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// passMain is the body of a pass process: it runs one pass and prints
// its result. The exit code is 0 whenever a result was printed; a failed
// pass reports its error in the result.
func passMain(w *workload, seed int64, spec string) int {
	kind, idx, err := parseSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var tr *tracer
	if kind == kindTraced {
		tr = newTracer()
	}
	p := newPass(w, passSeed(seed, idx, kind == kindShort), tr, kind != kindShort)
	err = p.run()
	r := passResult{
		SetupS:     p.setup.Seconds(),
		ConvergeS:  p.converge.Seconds(),
		EventsMs:   p.events,
		WireBytes:  p.wireBytes,
		AllocBytes: p.allocBytes,
		HeapPeak:   p.heapPeak,
		MeasuredS:  p.measured(),
		Attempted:  p.attempted,
		Failed:     p.failed,
		Work:       p.work,
		Tables:     p.tables,
		Extra:      p.extra,
		Layer:      p.layer,
	}
	if err == nil && tr != nil {
		r.SpanFile, err = tr.write(w.name, seed, idx)
	}
	if err != nil {
		r.Error = err.Error()
	}
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
	return 0
}

func parseSpec(spec string) (kind string, idx int, err error) {
	kind, n, ok := strings.Cut(spec, ":")
	idx, aerr := strconv.Atoi(n)
	if !ok || aerr != nil || idx < 0 || (kind != kindShort && kind != kindFull && kind != kindTraced) {
		return "", 0, fmt.Errorf("bad --pass %q: want short|full|traced:INDEX", spec)
	}
	return kind, idx, nil
}

// runPass starts a pass process and waits for it. Its counts of attempted
// and failed operations are returned with the pass's error, if any; when
// ctx ends first the process is killed and waited for.
func runPass(ctx context.Context, w *workload, seed int64, kind string, idx int) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--pass", kind+":"+strconv.Itoa(idx))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", kind, idx, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r passResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s pass %d: result: %w", kind, idx, err)
	}
	if r.Error != "" {
		return &r, fmt.Errorf("%s pass %d: %s", kind, idx, r.Error)
	}
	return &r, nil
}
