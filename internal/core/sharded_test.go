package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// annSnapshot renders the condensed provenance annotation of every live
// tuple, so provenance bit-identity is pinned alongside the tables.
func annSnapshot(n *Network) string {
	var b strings.Builder
	for _, name := range n.Nodes() {
		node := n.Node(name)
		for _, pred := range node.Engine.Predicates() {
			for _, tu := range node.Engine.Tuples(pred) {
				fmt.Fprintf(&b, "%s: %s = %s\n", name, tu, n.CondensedExpr(name, tu))
			}
		}
	}
	return b.String()
}

// compareShardRuns asserts two runs produced bit-identical tables,
// rounds, transport stats, crypto counters, and engine stats.
func compareShardRuns(t *testing.T, nS, nP *Network, roundsS, roundsP int, repS, repP *Report) {
	t.Helper()
	if a, b := snapshot(t, nS), snapshot(t, nP); a != b {
		t.Fatalf("fixpoint tables differ\n--- serial ---\n%s--- sharded ---\n%s", a, b)
	}
	if roundsS != roundsP {
		t.Errorf("rounds: serial %d, sharded %d", roundsS, roundsP)
	}
	if a, b := nS.Transport().Stats(), nP.Transport().Stats(); a != b {
		t.Errorf("netsim stats: serial %+v, sharded %+v", a, b)
	}
	if repS.Signed != repP.Signed || repS.Verified != repP.Verified {
		t.Errorf("signature ops: serial %d/%d, sharded %d/%d",
			repS.Signed, repS.Verified, repP.Signed, repP.Verified)
	}
	if repS.Derivations != repP.Derivations || repS.TuplesStored != repP.TuplesStored ||
		repS.Retracted != repP.Retracted {
		t.Errorf("engine stats: serial %d/%d/%d, sharded %d/%d/%d",
			repS.Derivations, repS.TuplesStored, repS.Retracted,
			repP.Derivations, repP.TuplesStored, repP.Retracted)
	}
}

// driveLifecycle runs the live/churn workload through the synchronous
// driver: initial convergence, then either two SetLink re-costings (one
// improvement, one increase — the insert and retract paths) or two
// CutLinks on best-path-carrying links, each awaited to quiescence. It
// returns the network, the total rounds across epochs, and the final
// cumulative report.
func driveLifecycle(t *testing.T, cfg Config, g *topo.Graph, churn bool) (*Network, int, *Report) {
	t.Helper()
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Rounds
	if churn {
		cut := cutCandidate(t, n, g)
		if err := d.CutLink(cut.From, cut.To); err != nil {
			t.Fatal(err)
		}
	} else {
		l0, l1 := g.Links[0], g.Links[1]
		if err := d.SetLink(l0.From, l0.To, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.SetLink(l1.From, l1.To, l1.Cost+9); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err = d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	total += rep.Rounds
	if churn {
		cut := cutCandidate(t, n, g)
		if err := d.CutLink(cut.From, cut.To); err != nil {
			t.Fatal(err)
		}
		if rep, err = d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
		total += rep.Rounds
	}
	return n, total, rep
}

// TestShardedMatchesSerial pins the tentpole invariant of intra-node
// sharding: Config.EngineShards > 1 produces exactly the same fixpoint
// tables, provenance annotations, rounds, transport stats, and engine
// stats as serial evaluation — on batch runs, on live SetLink deltas,
// and on CutLink churn (the retraction machinery sharded included).
// Run with -race this also exercises the read-only eval workers and the
// tables' lazy-index lock under concurrency.
func TestShardedMatchesSerial(t *testing.T) {
	batch := []struct {
		name string
		cfg  Config
	}{
		{"reachable-ndlog-paper", Config{
			Source: ReachableNDlog, Graph: paperGraph(), LinkNoCost: true,
		}},
		{"bestpath-rsa", Config{
			Source: BestPath,
			Graph:  topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 4}),
			Auth:   auth.SchemeRSA,
		}},
		{"bestpath-session-condensed", Config{
			Source:      BestPath,
			Graph:       topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 7}),
			Auth:        auth.SchemeRSA,
			SessionAuth: true,
			Prov:        provenance.ModeCondensed,
		}},
		{"distance-vector-local-prov", Config{
			Source: DistanceVector,
			Graph:  topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 2}),
			Prov:   provenance.ModeLocal,
		}},
	}
	for _, tc := range batch {
		t.Run("batch/"+tc.name, func(t *testing.T) {
			serial := tc.cfg
			serial.EngineShards = 1
			nS, repS := mustRun(t, serial)

			sharded := tc.cfg
			sharded.EngineShards = 4
			nP, repP := mustRun(t, sharded)

			compareShardRuns(t, nS, nP, repS.Rounds, repP.Rounds, repS, repP)
			if tc.cfg.Prov == provenance.ModeCondensed {
				if a, b := annSnapshot(nS), annSnapshot(nP); a != b {
					t.Errorf("provenance annotations differ\n--- serial ---\n%s--- sharded ---\n%s", a, b)
				}
			}
		})
	}

	for _, churn := range []bool{false, true} {
		name := "live/bestpath-rsa"
		if churn {
			name = "churn/bestpath-rsa"
		}
		t.Run(name, func(t *testing.T) {
			g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 9})
			base := Config{Source: BestPath, Graph: g, Auth: auth.SchemeRSA}

			serial := base
			serial.EngineShards = 1
			nS, roundsS, repS := driveLifecycle(t, serial, g, churn)

			sharded := base
			sharded.EngineShards = 4
			nP, roundsP, repP := driveLifecycle(t, sharded, g, churn)

			compareShardRuns(t, nS, nP, roundsS, roundsP, repS, repP)
		})
	}
}

// TestEngineShardsKnob pins that every shard count produces the same
// result (the worker-count analogue of TestParallelWorkerKnob).
func TestEngineShardsKnob(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 8, AvgOutDegree: 3, MaxCost: 5, Seed: 11})
	var want string
	var wantRounds int
	for i, shards := range []int{0, 1, 2, 3, 8, 64} {
		cfg := Config{Source: BestPath, Graph: g, EngineShards: shards}
		n, rep := mustRun(t, cfg)
		got := snapshot(t, n)
		if i == 0 {
			want, wantRounds = got, rep.Rounds
			continue
		}
		if got != want || rep.Rounds != wantRounds {
			t.Fatalf("engineshards=%d diverged (rounds %d vs %d)", shards, rep.Rounds, wantRounds)
		}
	}
}
