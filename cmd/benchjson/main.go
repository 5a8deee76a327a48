// Command benchjson records the benchmark workloads as JSON artifacts CI
// uploads on every build, so the perf trajectory across PRs is tracked.
//
// The default mode runs the transport-security matrix (the
// BenchmarkSessionAuth workload: §6 Best-Path on a 20-node random
// topology under churn, defined once in internal/benchwork):
//
//	go run ./cmd/benchjson -out BENCH_pr2.json
//
// With -live it records the live-churn workload instead: for each
// transport mode, converge, cut one best-path-carrying link through the
// lifecycle driver, and compare the incremental re-convergence (rounds,
// bytes, withdrawn tuples) against a full restart on the cut topology:
//
//	go run ./cmd/benchjson -live -out BENCH_pr3.json
//
// With -chaos it records the distributed-termination workload: N
// one-node networks over reliable loopback TCP under a seeded fault
// schedule (-fault/-faultseed; delays, duplicates, and post-kernel
// write loss), terminated by the credit/clean-wave detector and by the
// idle-window heuristic across three seeds each — the artifact compares
// their termination latency, reliability wire overhead (acks,
// retransmits, suppressed duplicates), and table correctness:
//
//	go run ./cmd/benchjson -chaos -out BENCH_pr10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"provnet"
	"provnet/internal/benchwork"
	"provnet/internal/cliflags"
)

// result is one transport-matrix cell (BENCH_pr2).
type result struct {
	Mode           string  `json:"mode"`
	NsPerOp        int64   `json:"ns_per_op"`
	WireBytes      int64   `json:"wire_bytes"`
	HandshakeBytes int64   `json:"handshake_bytes"`
	Messages       int64   `json:"messages"`
	Signatures     int64   `json:"signatures"`
	Handshakes     int64   `json:"handshakes"`
	MACs           int64   `json:"macs"`
	WireMB         float64 `json:"wire_mb"`
}

// shardResult is one intra-node sharding cell (BENCH_pr4): the wide
// fan-in workload at one Config.EngineShards setting. Tables and stats
// are bit-identical across shard counts; only wall-clock may differ
// (and only on multicore hardware).
type shardResult struct {
	EngineShards int   `json:"engine_shards"`
	NsPerOp      int64 `json:"ns_per_op"`
	Derivations  int64 `json:"derivations"`
	TuplesStored int64 `json:"tuples_stored"`
	Rounds       int   `json:"rounds"`
}

// queryLoadResult is the BENCH_pr6 concurrent-query record: HTTP
// traceback/table queries against a churning network served from
// snapshot-isolated ReadViews; torn must be zero.
type queryLoadResult struct {
	Workers    int     `json:"workers"`
	Churns     int     `json:"churns"`
	Snapshots  int     `json:"snapshots"`
	Queries    int     `json:"queries"`
	Tracebacks int     `json:"tracebacks"`
	TraceMiss  int     `json:"trace_miss"`
	Torn       int     `json:"torn_reads"`
	NsPerOp    int64   `json:"ns_per_op"`
	QPS        float64 `json:"queries_per_sec"`
}

// liveResult is one live-churn cell (BENCH_pr3): a single CutLink's
// incremental re-convergence vs a full restart, averaged over runs.
// CutLinks records every run's cut (each run uses a fresh seeded
// topology, so the cuts differ).
type liveResult struct {
	Mode          string   `json:"mode"`
	CutLinks      []string `json:"cut_links"`
	LiveRounds    int      `json:"live_rounds"`
	LiveBytes     int64    `json:"live_bytes"`
	Retracted     int64    `json:"retracted_tuples"`
	RestartRounds int      `json:"restart_rounds"`
	RestartBytes  int64    `json:"restart_bytes"`
	BytesRatio    float64  `json:"restart_over_live_bytes"`
}

// chaosResult is one chaos termination cell (BENCH_pr10): the credit
// detector or the idle heuristic ending a faulted distributed run.
// AckBytes+retransmits are the reliability overhead; TablesMatch is the
// correctness column the credit protocol wins.
type chaosResult struct {
	Term        string `json:"term"`
	Seed        int64  `json:"seed"`
	NsToTerm    int64  `json:"ns_to_terminate"`
	Waves       uint64 `json:"waves,omitempty"`
	Messages    int64  `json:"messages"`
	WireBytes   int64  `json:"wire_bytes"`
	AckMessages int64  `json:"ack_messages"`
	AckBytes    int64  `json:"ack_bytes"`
	Retransmits int64  `json:"retransmits"`
	DupDropped  int64  `json:"dup_dropped"`
	Delayed     int64  `json:"delayed_frames"`
	Duplicated  int64  `json:"duplicated_frames"`
	WriteLost   int64  `json:"write_lost_frames"`
	TablesMatch bool   `json:"tables_match"`
}

type output struct {
	Workload string           `json:"workload"`
	Nodes    int              `json:"nodes"`
	Cycles   int              `json:"cycles,omitempty"`
	Runs     int              `json:"runs"`
	KeyBits  int              `json:"key_bits"`
	Results  []result         `json:"results,omitempty"`
	Live     []liveResult     `json:"live_results,omitempty"`
	Shard    []shardResult    `json:"shard_results,omitempty"`
	Query    *queryLoadResult `json:"query_results,omitempty"`
	Chaos    []chaosResult    `json:"chaos_results,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_pr2.json", "output path")
	nodes := flag.Int("n", 20, "topology size")
	cycles := flag.Int("cycles", benchwork.DefaultCycles, "route-refresh cycles after initial convergence")
	runs := flag.Int("runs", 1, "averaging runs per mode")
	live := flag.Bool("live", false, "record the live-churn workload (CutLink re-convergence vs restart)")
	chaos := flag.Bool("chaos", false, "record the chaos termination workload (credit detector vs idle heuristic under -fault)")
	shard := flag.Bool("shard", false, "record the intra-node sharding workload (wide fan-in, engineshards sweep)")
	queryload := flag.Bool("queryload", false, "record the concurrent HTTP query workload (tracebacks vs churn, torn-read check)")
	qworkers := flag.Int("qworkers", 8, "query goroutines for -queryload")
	minQueries := flag.Int("queries", 1000, "traceback quota for -queryload")
	shared := cliflags.Register(nil)
	flag.Parse()
	if shared.TransportFlagsSet() {
		fatal(fmt.Errorf("-listen/-self/-peers (the multi-process TCP transport) are only supported by cmd/provnet"))
	}
	if shared.ServiceFlagsSet() {
		fatal(fmt.Errorf("-store/-http (the durable store log and query API) are only supported by cmd/provnet"))
	}
	// The recorded matrix IS the transport dimension: knobs that would
	// change it silently must be rejected, not ignored (the artifact is
	// compared across PRs).
	if shared.Auth != "none" || shared.Session || shared.Unbatched || shared.Churn > 0 || shared.Rekey != 0 {
		fatal("benchjson fixes the transport matrix; -auth/-session/-unbatched/-churn/-rekey are not applicable")
	}

	if *chaos {
		recordChaos(*out, *nodes, shared)
		return
	}
	if shared.Fault != "" {
		fatal("-fault/-faultseed configure the -chaos workload; the other cells run fault-free")
	}
	if *queryload {
		recordQueryLoad(*out, *nodes, *qworkers, *minQueries, shared)
		return
	}
	if *shard {
		// The shard sweep IS the engineshards dimension.
		if shared.EngineShards != 0 {
			fatal("-shard sweeps engineshards itself; -engineshards is not applicable")
		}
		recordShard(*out, *nodes, *runs, shared)
		return
	}
	if *live {
		recordLive(*out, *nodes, *runs, shared)
		return
	}

	o := output{
		Workload: "bestpath-churn",
		Nodes:    *nodes,
		Cycles:   *cycles,
		Runs:     *runs,
		KeyBits:  shared.KeyBits,
	}
	for _, m := range benchwork.Modes() {
		var r result
		r.Mode = m.Name
		for i := 0; i < *runs; i++ {
			cfg := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
			cfg.Workers = shared.Workers
			cfg.EngineShards = shared.EngineShards
			m.Mut(&cfg)
			start := time.Now()
			rep := benchwork.BestPathChurn(fatal, cfg, *nodes, *cycles, shared.KeyBits, int64(2000+i))
			r.NsPerOp += time.Since(start).Nanoseconds()
			r.WireBytes += rep.Bytes
			r.HandshakeBytes += rep.HandshakeBytes
			r.Messages += rep.Messages
			r.Signatures += rep.Signed
			r.Handshakes += rep.Handshakes
			r.MACs += rep.SealedMAC
		}
		k := int64(*runs)
		r.NsPerOp /= k
		r.WireBytes /= k
		r.HandshakeBytes /= k
		r.Messages /= k
		r.Signatures /= k
		r.Handshakes /= k
		r.MACs /= k
		r.WireMB = float64(r.WireBytes) / (1 << 20)
		o.Results = append(o.Results, r)
		fmt.Printf("%-22s %12dns %10d bytes %6d signatures %6d macs\n",
			m.Name, r.NsPerOp, r.WireBytes, r.Signatures, r.MACs)
	}
	write(*out, o)
}

// recordShard runs the BENCH_pr4 intra-node sharding workload: the
// wide fan-in join at Config.EngineShards 1, 2, 4, and 8, where the
// hub's rule evaluation — not transport — dominates. nodes is the
// spoke count. Derivations/tuples/rounds are recorded alongside ns/op
// precisely because they must NOT move across shard counts: the sweep
// doubles as a determinism record.
func recordShard(out string, nodes, runs int, shared *cliflags.Flags) {
	o := output{
		Workload: "sharded-fanin",
		Nodes:    nodes + 1, // spokes + hub
		Runs:     runs,
		KeyBits:  shared.KeyBits,
	}
	for _, shards := range []int{1, 2, 4, 8} {
		var agg shardResult
		agg.EngineShards = shards
		for i := 0; i < runs; i++ {
			cfg := provnet.Config{
				Workers:      shared.Workers,
				EngineShards: shards,
			}
			rep := benchwork.ShardedFanIn(fatal, cfg, nodes, 64, 6, int64(4000+i))
			// CompletionTime covers only the run to fixpoint, excluding
			// network construction (principal key generation).
			agg.NsPerOp += rep.CompletionTime.Nanoseconds()
			agg.Derivations += rep.Derivations
			agg.TuplesStored += rep.TuplesStored
			agg.Rounds += rep.Rounds
		}
		k := int64(runs)
		agg.NsPerOp /= k
		agg.Derivations /= k
		agg.TuplesStored /= k
		agg.Rounds /= runs
		o.Shard = append(o.Shard, agg)
		fmt.Printf("engineshards=%d %12dns %8d derivations %8d tuples %3d rounds\n",
			agg.EngineShards, agg.NsPerOp, agg.Derivations, agg.TuplesStored, agg.Rounds)
	}
	write(out, o)
}

// recordQueryLoad runs the BENCH_pr6 concurrent-query workload:
// workers goroutines issue HTTP traceback and table queries against a
// live churning network until the traceback quota is met, and every
// table response is checked against the set of published snapshots.
func recordQueryLoad(out string, nodes, workers, minQueries int, shared *cliflags.Flags) {
	cfg := provnet.Config{
		Source:       provnet.BestPath,
		Prov:         provnet.ProvDistributed,
		Workers:      shared.Workers,
		EngineShards: shared.EngineShards,
	}
	r := benchwork.ConcurrentQueryLoad(fatal, cfg, nodes, workers, minQueries, 11)
	if r.Torn != 0 {
		fatal(fmt.Errorf("%d torn reads — snapshot isolation is broken", r.Torn))
	}
	o := output{
		Workload: "concurrent-query-load",
		Nodes:    r.Nodes,
		Runs:     1,
		KeyBits:  shared.KeyBits,
		Query: &queryLoadResult{
			Workers:    r.Workers,
			Churns:     r.Churns,
			Snapshots:  r.Snapshots,
			Queries:    r.Queries,
			Tracebacks: r.Tracebacks,
			TraceMiss:  r.TraceMiss,
			Torn:       r.Torn,
			NsPerOp:    r.Elapsed.Nanoseconds(),
			QPS:        r.QPS,
		},
	}
	fmt.Printf("queryload n=%d workers=%d: %d queries (%d tracebacks, %d misses) over %d churns, %d snapshots, %.0f q/s, torn=%d\n",
		r.Nodes, r.Workers, r.Queries, r.Tracebacks, r.TraceMiss, r.Churns, r.Snapshots, r.QPS, r.Torn)
	write(out, o)
}

// recordChaos runs the BENCH_pr10 chaos termination workload: both
// termination modes across three fault seeds, same topology and fault
// spec, so adjacent cells isolate the detector's cost. The default
// schedule delays 30% of frames, duplicates 5%, and loses 5% of writes
// post-kernel; -fault/-faultseed override it.
func recordChaos(out string, nodes int, shared *cliflags.Flags) {
	spec := shared.Fault
	if spec == "" {
		spec = "delay=0.3,dup=0.05,delayops=200"
	}
	fc, err := cliflags.ParseFault(spec)
	if err != nil {
		fatal(err)
	}
	o := output{
		Workload: "chaos-termination",
		Nodes:    nodes,
		Runs:     3,
		KeyBits:  shared.KeyBits,
	}
	for _, term := range []string{"credit", "idle"} {
		for s := int64(0); s < 3; s++ {
			cfg := provnet.Config{
				Workers:      shared.Workers,
				EngineShards: shared.EngineShards,
			}
			r := benchwork.ChaosTermination(fatal, cfg, benchwork.ChaosSpec{
				Nodes:     nodes,
				Seed:      shared.FaultSeed + s,
				Term:      term,
				Fault:     fc,
				WriteLoss: 0.05,
			})
			o.Chaos = append(o.Chaos, chaosResult{
				Term:        r.Term,
				Seed:        r.Seed,
				NsToTerm:    r.Latency.Nanoseconds(),
				Waves:       r.Waves,
				Messages:    r.Messages,
				WireBytes:   r.Bytes,
				AckMessages: r.AckMessages,
				AckBytes:    r.AckBytes,
				Retransmits: r.Retransmits,
				DupDropped:  r.DupDropped,
				Delayed:     r.Delayed,
				Duplicated:  r.Duplicated,
				WriteLost:   r.WriteLost,
				TablesMatch: r.TablesMatch,
			})
			fmt.Printf("%-6s seed=%d %12dns %8d bytes (%d acks, %d retransmits, %d dups dropped) tables_match=%v\n",
				term, r.Seed, r.Latency.Nanoseconds(), r.Bytes, r.AckMessages, r.Retransmits, r.DupDropped, r.TablesMatch)
		}
	}
	write(out, o)
}

// recordLive runs the BENCH_pr3 live-churn workload: one CutLink per
// transport mode, incremental re-convergence vs restart.
func recordLive(out string, nodes, runs int, shared *cliflags.Flags) {
	o := output{
		Workload: "bestpath-livechurn",
		Nodes:    nodes,
		Runs:     runs,
		KeyBits:  shared.KeyBits,
	}
	for _, m := range benchwork.Modes() {
		var agg liveResult
		agg.Mode = m.Name
		for i := 0; i < runs; i++ {
			cfg := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
			cfg.Workers = shared.Workers
			cfg.EngineShards = shared.EngineShards
			m.Mut(&cfg)
			r := benchwork.LiveCutLink(fatal, cfg, nodes, shared.KeyBits, int64(3000+i))
			agg.CutLinks = append(agg.CutLinks, r.CutFrom+"->"+r.CutTo)
			agg.LiveRounds += r.LiveRounds
			agg.LiveBytes += r.LiveBytes
			agg.Retracted += r.Retracted
			agg.RestartRounds += r.RestartRounds
			agg.RestartBytes += r.RestartBytes
		}
		k := int64(runs)
		agg.LiveRounds /= runs
		agg.LiveBytes /= k
		agg.Retracted /= k
		agg.RestartRounds /= runs
		agg.RestartBytes /= k
		if agg.LiveBytes > 0 {
			agg.BytesRatio = float64(agg.RestartBytes) / float64(agg.LiveBytes)
		}
		o.Live = append(o.Live, agg)
		fmt.Printf("%-22s cut %-18s live %2d rounds %8d bytes | restart %2d rounds %8d bytes (%.1fx)\n",
			agg.Mode, strings.Join(agg.CutLinks, ","), agg.LiveRounds, agg.LiveBytes, agg.RestartRounds, agg.RestartBytes, agg.BytesRatio)
	}
	write(out, o)
}

func write(path string, o output) {
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchjson:"}, args...)...)
	os.Exit(1)
}
