// Command perfbench is provnet's benchmark: four seeded workloads run
// against the public provnet API, each checked against an independent
// oracle, reporting end-to-end metrics (untraced runs) or per-module
// metrics (traced runs). See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload secure-churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records the
// environment (seed, commit, CPUs, Go version, key size, ...).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// keyBits is cmd/provnet's default RSA modulus, used by every workload.
const keyBits = 1024

// runLimit bounds a whole run: a pass process still running then is
// killed, and the run fails.
const runLimit = 170 * time.Second

// workload is one seeded benchmark input. pass builds the workload from
// scratch, converges it and checks it; a full pass then runs the
// workload's script. A run repeats passes.
type workload struct {
	name string
	pass func(p *pass) error
	// fullSecs is the nominal duration of a full pass on a 2-CPU
	// machine; it sets a traced run's number of pass pairs.
	fullSecs float64
	// sameWork reports whether two passes on one seed must do exactly
	// the same work (derivation counts); false where delivery order over
	// real sockets legitimately varies it.
	sameWork bool
}

// workloads are the benchmark's inputs; README.md gives the reason for
// each, and why fanin-join and tcp-mesh are not listed in BENCHMARK.json.
var workloads = []workload{
	{name: "secure-churn", pass: secureChurnPass, fullSecs: 9.5, sameWork: true},
	{name: "fanin-join", pass: faninPass, fullSecs: 37, sameWork: true},
	{name: "traceback-serve", pass: tracebackPass, fullSecs: 8.5, sameWork: true},
	{name: "tcp-mesh", pass: meshPass, fullSecs: 6, sameWork: false},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	passSpec := flag.String("pass", "", "internal: run one pass (short|full|traced:INDEX) and print its result")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1 (workloads: %s)\n", workloadNames())
		return 2
	}
	if *passSpec != "" {
		return passMain(w, *seed, *passSpec)
	}

	info := environment(w.name, *seed)
	steal0, total0, stealOK := cpuTicks()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, info)
	} else {
		res, err = measuredRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, info)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		res.Correct = false
	}
	// The share of the host's CPU time the hypervisor gave to other
	// guests during the run: on a shared host, the times of runs with
	// more steal read higher.
	if steal1, total1, ok := cpuTicks(); ok && stealOK && total1 > total0 {
		info["cpu_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	line, _ := json.Marshal(map[string]any{"perfbench": info})
	fmt.Println(string(line))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// A run measures for its budget. It spends about shortShare of that time
// on short passes (set-up and convergence only) and the rest on full
// passes, interleaved so both kinds sample the whole run, and starts a
// pass only while the pass is expected to end within the budget (at
// least minShort short passes and one full pass are always made). Each
// pass index has fixed inputs, so a seed always means the same inputs; a
// slower machine makes fewer passes rather than a longer run.
const (
	shortShare = 0.3
	minShort   = 2
)

// tally is what a run has made of one kind of pass so far.
type tally struct {
	n           int
	spent, last time.Duration
}

func (t *tally) add(took time.Duration) {
	t.n++
	t.spent += took
	t.last = took
}

// next picks the kind of the run's next pass (true for short), or
// reports false in ok when no pass fits the time left. The first short
// and the first full pass come first; after them a kind's latest
// duration predicts its next one.
func (w *workload) next(left time.Duration, short, full tally) (isShort, ok bool) {
	switch {
	case short.n == 0 || (full.n >= 1 && short.n < minShort):
		return true, true
	case full.n == 0:
		return false, true
	}
	isShort = float64(short.spent) < shortShare*float64(short.spent+full.spent)
	if !isShort && full.last > left {
		isShort = true
	}
	return isShort, short.last <= left || !isShort
}

// passSeed derives the inputs of a run's i-th full pass (or, with short
// set, its i-th short pass) from the run's seed: every pass draws its own
// keys and script, so a run's medians cover several inputs.
func passSeed(seed int64, i int, short bool) int64 {
	if short {
		i += 1 << 10
	}
	return seed<<16 + int64(i)
}

// measuredRun makes short and full passes for the run's budget, after
// one unmeasured warm-up pass on the inputs of the first short pass, and
// reports the end-to-end metrics: set-up and convergence as medians over
// every pass; traffic and memory as medians over the full passes; each
// latency percentile over the pooled events of every full pass.
func measuredRun(ctx context.Context, w *workload, seed int64, budget time.Duration, info map[string]any) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	count := func(r *passResult) {
		if r != nil {
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
	}
	r, err := runPass(ctx, w, seed, kindShort, 0)
	count(r)
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	var passes, full []*passResult
	var events []float64
	var shorts, fulls tally
	for {
		short, ok := w.next(budget-time.Since(start), shorts, fulls)
		if !ok {
			break
		}
		kind, idx := kindShort, shorts.n
		if !short {
			kind, idx = kindFull, fulls.n
		}
		began := time.Now()
		r, err := runPass(ctx, w, seed, kind, idx)
		took := time.Since(began)
		count(r)
		if err != nil {
			return res, err
		}
		passes = append(passes, r)
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d took %.1fs: setup %.4fs, converge %.4fs, %d events p50 %.2fms p90 %.2fms, heap peak %.0fMB\n",
			kind, idx, took.Seconds(), r.SetupS, r.ConvergeS, len(r.EventsMs), percentile(r.EventsMs, 50), percentile(r.EventsMs, 90), float64(r.HeapPeak)/1e6)
		if short {
			shorts.add(took)
		} else {
			fulls.add(took)
			full = append(full, r)
			events = append(events, r.EventsMs...)
		}
	}
	var setup, converge, wire, alloc, heap []float64
	for _, r := range passes {
		setup = append(setup, r.SetupS)
		converge = append(converge, r.ConvergeS)
	}
	for _, r := range full {
		wire = append(wire, float64(r.WireBytes)/1e6)
		alloc = append(alloc, float64(r.AllocBytes)/1e6)
		heap = append(heap, float64(r.HeapPeak)/1e6)
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setup), "s"}
	m["converge_s"] = metric{median(converge), "s"}
	m["reconverge_p50_ms"] = metric{percentile(events, 50), "ms"}
	m["reconverge_p90_ms"] = metric{percentile(events, 90), "ms"}
	m["wire_mb"] = metric{median(wire), "MB"}
	m["alloc_mb"] = metric{median(alloc), "MB"}
	m["heap_peak_mb"] = metric{median(heap), "MB"}
	info["passes"] = len(passes)
	info["full_passes"] = len(full)
	info["reconverge_samples"] = len(events)
	// Workload-specific figures (traceback latency, query capacity) are
	// medians over passes too; they are reported here, not gated.
	extra := map[string]float64{}
	for _, k := range sortedKeys(full[0].Extra) {
		var vs []float64
		for _, r := range full {
			vs = append(vs, r.Extra[k])
		}
		extra[k] = median(vs)
	}
	if len(extra) > 0 {
		info["workload_figures"] = extra
	}
	return res, nil
}

// tracedRun alternates untraced and traced full passes, each pair on the
// same inputs, as many pairs as fit the measurement time (at least one).
// Every traced pass must reach the untraced pass's tables and work
// counts; the per-layer metrics are medians over the traced passes, and
// the gap in timed work between the two kinds of pass is reported as the
// tracing overhead.
func tracedRun(ctx context.Context, w *workload, seed int64, budget time.Duration, info map[string]any) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var layers []map[string]float64
	var overhead []float64
	var spanFiles []string
	pairs := max(1, int(math.Round(budget.Seconds()/(2*w.fullSecs))))
	for i := 0; i < pairs; i++ {
		var pair [2]*passResult
		for k, kind := range []string{kindFull, kindTraced} {
			r, err := runPass(ctx, w, seed, kind, i)
			if r != nil {
				res.Attempted += r.Attempted
				res.Failed += r.Failed
			}
			if err != nil {
				return res, err
			}
			pair[k] = r
		}
		plain, tp := pair[0], pair[1]
		if err := sameOutcome(w, plain, tp); err != nil {
			return res, fmt.Errorf("traced pass differs from untraced pass: %w", err)
		}
		overhead = append(overhead, 100*(tp.MeasuredS/plain.MeasuredS-1))
		tp.Layer["bench.reconverge_samples"] = float64(len(tp.EventsMs))
		layers = append(layers, tp.Layer)
		spanFiles = append(spanFiles, tp.SpanFile)
	}
	for _, d := range perLayer {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[d.name])
		}
		res.Metrics[d.name] = metric{median(vs), d.unit}
	}
	res.Metrics["bench.trace_overhead_pct"] = metric{median(overhead), "%"}
	info["traced_passes"] = len(layers)
	info["span_files"] = spanFiles
	return res, nil
}

// sameOutcome checks that two passes on the same inputs ended in the
// same tables and, where the workload is deterministic, did the same work.
func sameOutcome(w *workload, a, b *passResult) error {
	if a.Tables != b.Tables {
		return fmt.Errorf("final tables differ between passes (digests %.12s vs %.12s)", a.Tables, b.Tables)
	}
	if w.sameWork && a.Work != b.Work {
		return fmt.Errorf("work counts differ between passes: %+v vs %+v", a.Work, b.Work)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// environment records what a result must carry to be compared: the
// seed, the source it was built from, and the machine it ran on.
func environment(name string, seed int64) map[string]any {
	commit, digest := sourceIdentity()
	return map[string]any{
		"workload":          name,
		"seed":              seed,
		"commit":            commit,
		"source_sha256":     digest,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"key_bits":          keyBits,
		"tcp_loopback_only": true,
		"storelog_fsync":    true,
		"storelog_fs":       storeFS(),
	}
}
