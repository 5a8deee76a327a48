package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"provnet"
	"provnet/internal/netsim"
)

// Shared Best-Path workload shape (the paper's §6 topology). The
// topology is part of the workload's definition: one random graph drawn
// with pathTopoSeed, so the metrics do not swing with the graph a run
// seed happens to draw. The run seed varies the keys, the event scripts
// and the query targets.
const (
	pathNodes     = 20
	pathOutDegree = 3
	pathMaxCost   = 10
	pathTopoSeed  = 1
)

// secure-churn script size and oracle cadence.
const (
	churnEvents = 200
	checkEvery  = 50
)

func pathGraph() *provnet.Graph {
	return provnet.RandomGraph(provnet.TopoOptions{N: pathNodes, AvgOutDegree: pathOutDegree, MaxCost: pathMaxCost, Seed: pathTopoSeed})
}

// build times one network build as set-up, installing the traced-pass
// hooks (metrics registry, transport wrapper) first.
func (p *pass) build(cfg provnet.Config) (*provnet.Network, error) {
	if p.tr != nil {
		if cfg.Metrics == nil {
			cfg.Metrics = provnet.NewMetrics()
		}
		if cfg.Transport == nil {
			cfg.Transport = netsim.New()
		}
		t, err := wrapTransport(cfg.Transport, p.tr)
		if err != nil {
			return nil, err
		}
		cfg.Transport = t
	}
	var n *provnet.Network
	start := time.Now()
	err := p.tr.span("setup", func() error {
		var err error
		n, err = provnet.NewNetwork(cfg)
		return err
	})
	p.setup += time.Since(start)
	return n, err
}

// fixpoint runs the network to its first fixpoint: with live set, on
// the started driver's pump (which publishes a ReadView at every
// quiescence point), otherwise stepped on the caller's goroutine as
// Network.Run does.
func (p *pass) fixpoint(ctx context.Context, n *provnet.Network, live bool) (*provnet.Report, error) {
	d := n.Driver()
	end := p.tr.eventSpan("converge", 0)
	start := time.Now()
	var err error
	if live {
		err = d.Start(ctx)
	}
	var rep *provnet.Report
	if err == nil {
		rep, err = d.AwaitQuiescence(ctx)
	}
	p.converge = time.Since(start)
	end()
	p.collectHeap()
	return rep, p.op(err)
}

// viewCounter counts ReadView publications seen at quiescence points.
type viewCounter struct {
	last  uint64
	count int
}

func (v *viewCounter) see(d *provnet.Driver) {
	if s := d.ReadView().Seq; s != v.last {
		v.last = s
		v.count++
	}
}

// secureChurnPass: SeNDlogProv Best-Path (per-batch RSA says, condensed
// provenance) converges, then a closed-loop script of link events, each
// chosen from the installed best paths and awaited to quiescence.
func secureChurnPass(p *pass) error {
	g := pathGraph()
	if err := p.probeSetup(provnet.BestPath, g.Nodes, 1); err != nil {
		return err
	}
	cfg := provnet.VariantConfig(provnet.VariantSeNDlogProv, provnet.BestPath)
	cfg.Graph = g
	cfg.Seed = p.seed
	cfg.KeyBits = keyBits
	n, err := p.build(cfg)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer n.Close()
	p.setupDone()

	ctx := context.Background()
	d := n.Driver()
	rep, err := p.fixpoint(ctx, n, true)
	if err != nil {
		return fmt.Errorf("converge: %w", err)
	}
	s := newLinkState(g)
	nodes := n.Nodes()
	if err := p.aside(func() error { return checkSpCost(s, n.Tuples) }); err != nil {
		return err
	}
	if !p.full {
		return nil
	}
	var views viewCounter
	views.see(d)
	rounds0 := scriptRounds(n.Metrics())

	rng := rand.New(rand.NewSource(p.seed))
	bestPath := []string{"bestPath"}
	for i := 1; i <= churnEvents; i++ {
		var e linkEvent
		var before string
		_ = p.aside(func() error {
			e = s.next(rng, i-1, carrying(nodes, n.Tuples), true)
			before = digest(nodes, bestPath, n.Tuples)
			return nil
		})
		end := p.tr.eventSpan("event."+e.kind, uint64(i))
		start := time.Now()
		err := e.apply(d)
		if err == nil {
			rep, err = d.AwaitQuiescence(ctx)
		}
		lat := time.Since(start)
		end()
		if p.op(err) != nil {
			return fmt.Errorf("event %d (%s %s->%s): %w", i, e.kind, e.from, e.to, err)
		}
		p.events = append(p.events, float64(lat.Nanoseconds())/1e6)
		views.see(d)
		s.commit(e)
		err = p.aside(func() error {
			if digest(nodes, bestPath, n.Tuples) == before {
				return oracleError("event %d (%s %s->%s) changed no installed bestPath", i, e.kind, e.from, e.to)
			}
			if i%checkEvery == 0 || i == churnEvents {
				return checkSpCost(s, n.Tuples)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	p.finish()
	p.wireBytes = n.Transport().Stats().Bytes
	p.work = workCounts{rep.Derivations, rep.TuplesStored, rep.Retracted}
	p.tables = digest(nodes, []string{"spCost", "bestPath"}, n.Tuples)
	p.collectLayers([]*provnet.Report{rep}, []*provnet.Metrics{n.Metrics()}, []netsim.Stats{n.Transport().Stats()}, rounds0, churnEvents)
	p.layer["core.views_published"] = float64(views.count)
	return nil
}
