package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"provnet"
	"provnet/internal/benchwork"
	"provnet/internal/netsim"
)

// fanin-join shape: 8 spokes ship a random edge set (1,024 vertices,
// out-degree 8) to one hub; after the fixpoint, a script of new edge
// readings at the spokes is awaited one by one.
const (
	faninSpokes     = 8
	faninVertices   = 1024
	faninDegree     = 8
	faninEvents     = 100
	faninCheckEvery = 50
)

type edge struct {
	spoke string
	x, y  int
}

func (e edge) tuple() provnet.Tuple {
	return provnet.NewTuple("item", provnet.Str(e.spoke), provnet.Str(benchwork.FanInHub),
		provnet.Str(fmt.Sprintf("v%d", e.x)), provnet.Str(fmt.Sprintf("v%d", e.y)))
}

// faninEdges generates the edge readings, round-robin over the spokes.
func faninEdges(seed int64, spokes []string) []edge {
	rng := rand.New(rand.NewSource(seed))
	var out []edge
	for x := 0; x < faninVertices; x++ {
		for k := 0; k < faninDegree; k++ {
			y := rng.Intn(faninVertices - 1)
			if y >= x {
				y++
			}
			out = append(out, edge{spoke: spokes[len(out)%len(spokes)], x: x, y: y})
		}
	}
	return out
}

// freshEdge draws an edge no spoke has reported yet, at a random spoke.
func freshEdge(rng *rand.Rand, edges []edge, spokes []string) edge {
	for {
		x, y := rng.Intn(faninVertices), rng.Intn(faninVertices)
		if x == y {
			continue
		}
		dup := false
		for _, e := range edges {
			if e.x == x && e.y == y {
				dup = true
				break
			}
		}
		if !dup {
			return edge{spoke: spokes[rng.Intn(len(spokes))], x: x, y: y}
		}
	}
}

// checkFan compares the hub's fan counts with a direct two-hop count
// over the edges present.
func checkFan(n *provnet.Network, present []bool, edges []edge) error {
	succ := make([]map[int]bool, faninVertices)
	for i, e := range edges {
		if present[i] {
			if succ[e.x] == nil {
				succ[e.x] = map[int]bool{}
			}
			succ[e.x][e.y] = true
		}
	}
	want := map[string]int64{}
	for x := range succ {
		ends := map[int]bool{}
		for y := range succ[x] {
			for z := range succ[y] {
				ends[z] = true
			}
		}
		if len(ends) > 0 {
			want[fmt.Sprintf("v%d", x)] = int64(len(ends))
		}
	}
	got := n.Tuples(benchwork.FanInHub, "fan")
	if len(got) != len(want) {
		return oracleError("hub has %d fan rows, direct count %d", len(got), len(want))
	}
	for _, t := range got {
		if c := want[t.Args[1].Str]; c != t.Args[2].Int {
			return oracleError("fan(%s) = %d, direct count %d", t.Args[1].Str, t.Args[2].Int, c)
		}
	}
	return nil
}

// faninPass: the NDlog (no auth, no provenance) wide fan-in program run
// to its fixpoint, then new edges at the spokes awaited one by one.
func faninPass(p *pass) error {
	spokes := make([]string, faninSpokes)
	for i := range spokes {
		spokes[i] = fmt.Sprintf("s%d", i)
	}
	nodes := append([]string{benchwork.FanInHub}, spokes...)
	if err := p.probeSetup(benchwork.ShardedFanInSource, nodes, 1); err != nil {
		return err
	}
	edges := faninEdges(p.seed, spokes)
	cfg := provnet.Config{
		Source:     benchwork.ShardedFanInSource,
		Auth:       provnet.AuthNone,
		Prov:       provnet.ProvNone,
		KeyBits:    keyBits,
		Seed:       p.seed,
		ExtraNodes: nodes,
	}
	n, err := p.build(cfg)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer n.Close()
	start := time.Now()
	err = p.tr.span("setup.facts", func() error {
		for _, e := range edges {
			if err := n.InsertFact(e.spoke, e.tuple()); err != nil {
				return err
			}
		}
		return nil
	})
	p.setup += time.Since(start)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	p.setupDone()

	ctx := context.Background()
	d := n.Driver()
	rep, err := p.fixpoint(ctx, n, false)
	if err != nil {
		return fmt.Errorf("converge: %w", err)
	}
	present := make([]bool, len(edges))
	for i := range present {
		present[i] = true
	}
	if err := p.aside(func() error { return checkFan(n, present, edges) }); err != nil {
		return err
	}
	if !p.full {
		return nil
	}
	var views viewCounter
	views.see(d)
	rounds0 := scriptRounds(n.Metrics())

	rng := rand.New(rand.NewSource(p.seed + 1))
	for i := 1; i <= faninEvents; i++ {
		e := edges[len(edges)-1]
		_ = p.aside(func() error {
			e = freshEdge(rng, edges, spokes)
			return nil
		})
		end := p.tr.eventSpan("event.inject", uint64(i))
		start := time.Now()
		err := d.Inject(e.spoke, e.tuple())
		if err == nil {
			rep, err = d.AwaitQuiescence(ctx)
		}
		lat := time.Since(start)
		end()
		if p.op(err) != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		edges = append(edges, e)
		present = append(present, true)
		p.events = append(p.events, float64(lat.Nanoseconds())/1e6)
		views.see(d)
		if i%faninCheckEvery == 0 {
			if err := p.aside(func() error { return checkFan(n, present, edges) }); err != nil {
				return err
			}
		}
	}
	p.finish()
	p.wireBytes = n.Transport().Stats().Bytes
	p.work = workCounts{rep.Derivations, rep.TuplesStored, rep.Retracted}
	p.tables = digest([]string{benchwork.FanInHub}, []string{"fan"}, n.Tuples)
	p.collectLayers([]*provnet.Report{rep}, []*provnet.Metrics{n.Metrics()}, []netsim.Stats{n.Transport().Stats()}, rounds0, faninEvents)
	p.layer["core.views_published"] = float64(views.count)
	return nil
}
