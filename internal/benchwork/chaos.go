package benchwork

// The chaos termination workload behind BENCH_pr10.json: N core.Networks
// (one hosted node each, mirroring core.TestTCPMatchesNetsim) run the
// Best-Path query over loopback TCP with the reliability layer on, while
// a seeded fault schedule delays and duplicates application frames
// (internal/faultnet) and a seeded write-loss hook discards frames the
// kernel had already accepted (nettcp.Config.DropWrite — the crash-
// shaped loss the retransmit protocol recovers). The run ends through
// one of the two termination modes cmd/provnet offers, so the recorded
// cells compare the credit/clean-wave detector against the idle-window
// heuristic on latency, wire overhead, and — the column that justifies
// the default — whether the tables at declaration were actually
// complete.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provnet"
	"provnet/internal/faultnet"
	"provnet/internal/nettcp"
)

// ChaosSpec configures one chaos termination run.
type ChaosSpec struct {
	// Nodes is the random-topology size.
	Nodes int
	// Seed seeds the topology, the per-process fault schedules, and the
	// write-loss RNGs.
	Seed int64
	// Term is the termination mode: "credit" (the clean-wave detector)
	// or "idle" (the wall-clock heuristic).
	Term string
	// IdleWindow is the idle-mode quiet window (default 250ms).
	IdleWindow time.Duration
	// Fault is the per-process application-frame schedule. Drop must be
	// zero: faultnet sits above the retransmit layer, so a drop there is
	// a genuine application loss no protocol recovers.
	Fault faultnet.Config
	// WriteLoss is the probability a written frame is discarded after
	// the kernel accepted it — the loss the retransmit path repairs.
	WriteLoss float64
}

// ChaosResult is one recorded chaos cell.
type ChaosResult struct {
	Term        string
	Seed        int64
	Latency     time.Duration // start of the live run → termination declared everywhere
	Waves       uint64        // completed detection waves (credit mode only)
	Messages    int64         // data frames on the wire, all processes
	Bytes       int64
	AckMessages int64 // reliability overhead: ack frames and bytes,
	AckBytes    int64 // retransmitted frames, suppressed duplicates
	Retransmits int64
	DupDropped  int64
	Delayed     int64 // fault-schedule activity across all processes
	Duplicated  int64
	WriteLost   int64
	TablesMatch bool // union of spCost tables equals the netsim reference
}

// ChaosTermination runs one chaos cell. cfg carries the scheduler knobs
// (Workers, EngineShards); topology, auth, transport, and
// termination come from spec. fatal is testing.T.Fatal / benchjson
// compatible.
func ChaosTermination(fatal func(...any), cfg provnet.Config, spec ChaosSpec) ChaosResult {
	if spec.Fault.Drop != 0 {
		fatal("chaos: faultnet drop is above the retransmit layer; use WriteLoss for recoverable loss")
	}
	if spec.IdleWindow <= 0 {
		spec.IdleWindow = 250 * time.Millisecond
	}
	cfg.Source = provnet.BestPath
	cfg.Graph = provnet.RandomGraph(provnet.TopoOptions{N: spec.Nodes, AvgOutDegree: 3, MaxCost: 10, Seed: spec.Seed})
	cfg.Auth = provnet.AuthHMAC
	cfg.Seed = spec.Seed

	ref, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	if _, err := ref.Run(0); err != nil {
		fatal(err)
	}
	names := ref.Nodes()
	want := spCostUnion(ref, names)

	// One transport per simulated process: reliable nettcp on loopback,
	// seeded write loss below it, the faultnet schedule above it.
	tcps := make([]*nettcp.Transport, len(names))
	fns := make([]*faultnet.Net, len(names))
	var writeLost atomic.Int64
	for i := range names {
		rng := rand.New(rand.NewSource(spec.Seed*1000 + int64(i)))
		var mu sync.Mutex
		tcp, err := nettcp.New(nettcp.Config{
			Listen:            "127.0.0.1:0",
			Reliable:          true,
			RetransmitTimeout: 50 * time.Millisecond,
			DropWrite: func(peer string, seq uint64, ack bool) bool {
				if spec.WriteLoss == 0 {
					return false
				}
				mu.Lock()
				drop := rng.Float64() < spec.WriteLoss
				mu.Unlock()
				if drop {
					writeLost.Add(1)
				}
				return drop
			},
		})
		if err != nil {
			fatal(err)
		}
		tcps[i] = tcp
		fc := spec.Fault
		fc.Seed = spec.Seed*100 + int64(i)
		if fc.AutoReleaseEvery <= 0 {
			fc.AutoReleaseEvery = time.Millisecond
		}
		fns[i] = faultnet.New(tcp, fc)
	}
	for i := range names {
		for j := range names {
			if i != j {
				tcps[i].AddPeer(names[j], tcps[j].Addr())
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nets := make([]*provnet.Network, len(names))
	for i, name := range names {
		c := cfg
		c.Transport = fns[i]
		c.LocalNodes = []string{name}
		n, err := provnet.NewNetwork(c)
		if err != nil {
			fatal(err)
		}
		nets[i] = n
		defer n.Close()
		if err := n.Driver().Start(ctx); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	res := ChaosResult{Term: spec.Term, Seed: spec.Seed}
	switch spec.Term {
	case "credit":
		tds := make([]*provnet.TermDetector, len(nets))
		for i, n := range nets {
			tds[i] = n.StartTermination(ctx, provnet.TermConfig{WaveTimeout: 500 * time.Millisecond, PollEvery: time.Millisecond})
		}
		for i, td := range tds {
			select {
			case <-td.Done():
			case <-time.After(120 * time.Second):
				fatal(fmt.Sprintf("chaos: %s never saw termination (waves %d, err %v)", names[i], td.Waves(), td.Err()))
			}
			if w := td.Waves(); w > res.Waves {
				res.Waves = w
			}
		}
	case "idle":
		var wg sync.WaitGroup
		for i := range nets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// The cliflags -term idle loop: local quiescence plus a
				// full quiet window of this process's transport counters.
				d := nets[i].Driver()
				var last int64 = -1
				for {
					if _, err := d.AwaitQuiescence(ctx); err != nil {
						fatal(err)
						return
					}
					cur := fns[i].Stats().Messages
					if cur == last {
						return
					}
					last = cur
					time.Sleep(spec.IdleWindow)
				}
			}(i)
		}
		wg.Wait()
	default:
		fatal(fmt.Sprintf("chaos: unknown termination mode %q", spec.Term))
	}
	res.Latency = time.Since(start)

	// Let frames already released settle before reading tables, then
	// collect the run's wire and fault footprint.
	for _, n := range nets {
		if _, err := n.Driver().AwaitQuiescence(ctx); err != nil {
			fatal(err)
		}
	}
	for i := range names {
		s := tcps[i].Stats()
		res.Messages += s.Messages
		res.Bytes += s.Bytes
		res.AckMessages += s.AckMessages
		res.AckBytes += s.AckBytes
		res.Retransmits += s.Retransmits
		res.DupDropped += s.DupDropped
		fl := fns[i].Faults()
		res.Delayed += fl.Delayed
		res.Duplicated += fl.Duplicated
	}
	res.WriteLost = writeLost.Load()

	// spCost only: min-cost is delivery-order independent, while the
	// bestPath picked between equal-cost ties is keyed last-writer-wins
	// and legitimately differs under reordering.
	var got []string
	for i, name := range names {
		got = append(got, spCostLines(nets[i], name)...)
	}
	sort.Strings(got)
	res.TablesMatch = strings.Join(got, "\n") == want
	return res
}

// spCostUnion snapshots the spCost tables of names on n, sorted.
func spCostUnion(n *provnet.Network, names []string) string {
	var all []string
	for _, name := range names {
		all = append(all, spCostLines(n, name)...)
	}
	sort.Strings(all)
	return strings.Join(all, "\n")
}

func spCostLines(n *provnet.Network, name string) []string {
	var out []string
	for _, tu := range n.Tuples(name, "spCost") {
		out = append(out, name+"\t"+tu.String())
	}
	return out
}
