package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"provnet"
	"provnet/internal/netsim"
	"provnet/internal/nettcp"
)

// tcp-mesh shape: the 20 Best-Path nodes split over 4 networks in this
// process, each with its own reliable nettcp transport on loopback.
const (
	meshNets    = 4
	meshEvents  = 100
	meshPoll    = time.Millisecond
	meshTimeout = 60 * time.Second
)

// meshRef is the in-memory netsim reference run of one seed: the spCost
// union at convergence and after the script.
type meshRef struct{ converged, final string }

var meshRefs = map[int64]*meshRef{}

func meshConfig(g *provnet.Graph, seed int64) provnet.Config {
	return provnet.Config{Source: provnet.BestPath, Graph: g, Auth: provnet.AuthHMAC, KeyBits: keyBits, Seed: seed}
}

// reference runs the same program, topology and script on one netsim
// network, checked against Dijkstra, once per seed.
func reference(g *provnet.Graph, seed int64, script []linkEvent) (*meshRef, error) {
	if r := meshRefs[seed]; r != nil {
		return r, nil
	}
	n, err := provnet.NewNetwork(meshConfig(g, seed))
	if err != nil {
		return nil, err
	}
	defer n.Close()
	ctx := context.Background()
	d := n.Driver()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		return nil, err
	}
	s := newLinkState(g)
	if err := checkSpCost(s, n.Tuples); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r := &meshRef{converged: digest(g.Nodes, []string{"spCost"}, n.Tuples)}
	for _, e := range script {
		if err := e.apply(d); err != nil {
			return nil, err
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			return nil, err
		}
		s.commit(e)
	}
	if err := checkSpCost(s, n.Tuples); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r.final = digest(g.Nodes, []string{"spCost"}, n.Tuples)
	meshRefs[seed] = r
	return r, nil
}

// mesh is one pass's four networks and their transports.
type mesh struct {
	nets   []*provnet.Network
	tcps   []provnet.Transport
	hostOf map[string]int
}

// quiet reports the benchmark's global-quiescence predicate at one
// instant: every driver quiet, nothing in flight or pending on any
// transport. It also returns the summed data-message counter.
func (m *mesh) quiet() (bool, int64) {
	q := true
	var msgs int64
	for i, n := range m.nets {
		t := m.tcps[i]
		if !n.Driver().Quiet() || t.PendingCount() > 0 || t.(interface{ InFlight() int }).InFlight() > 0 {
			q = false
		}
		msgs += t.Stats().Messages
	}
	return q, msgs
}

// awaitQuiet polls until two consecutive polls see the quiescence
// predicate with an unchanged message count, and returns the time of the
// first of the two.
func (m *mesh) awaitQuiet() (time.Time, error) {
	deadline := time.Now().Add(meshTimeout)
	var prevAt time.Time
	prevOK, prevMsgs := false, int64(-1)
	for time.Now().Before(deadline) {
		at := time.Now()
		ok, msgs := m.quiet()
		if ok && prevOK && msgs == prevMsgs {
			return prevAt, nil
		}
		prevAt, prevOK, prevMsgs = at, ok, msgs
		time.Sleep(meshPoll)
	}
	return time.Time{}, fmt.Errorf("no global quiescence within %v", meshTimeout)
}

// tuples reads a node's table off its hosting network's read view.
func (m *mesh) tuples(node, pred string) []provnet.Tuple {
	var out []provnet.Tuple
	for _, r := range m.nets[m.hostOf[node]].Driver().ReadView().Rows(node, pred) {
		out = append(out, r.Tuple)
	}
	return out
}

// meshPass: Best-Path with HMAC says over 4 networks × 5 nodes on
// reliable loopback nettcp; the credit termination detector ends the
// initial convergence, then a script of link events is awaited to
// global quiescence, each applied at the network hosting its link.
func meshPass(p *pass) error {
	g := pathGraph()
	script := graphScript(g, p.seed, meshEvents)
	ref, err := reference(g, p.seed, script)
	if err != nil {
		return err
	}
	if err := p.probeSetup(provnet.BestPath, g.Nodes, meshNets); err != nil {
		return err
	}
	names := append([]string(nil), g.Nodes...)
	sort.Strings(names)
	groups := make([][]string, meshNets)
	m := &mesh{hostOf: map[string]int{}}
	for i, name := range names {
		groups[i%meshNets] = append(groups[i%meshNets], name)
		m.hostOf[name] = i % meshNets
	}
	tcps := make([]*nettcp.Transport, meshNets)
	defer func() {
		for _, t := range tcps {
			if t != nil {
				t.Close()
			}
		}
	}()
	for i := range tcps {
		if tcps[i], err = nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Reliable: true}); err != nil {
			return err
		}
	}
	for i, t := range tcps {
		for _, name := range names {
			if j := m.hostOf[name]; j != i {
				t.AddPeer(name, tcps[j].Addr())
			}
		}
	}
	for i := range tcps {
		cfg := meshConfig(g, p.seed)
		cfg.Transport = tcps[i]
		cfg.LocalNodes = groups[i]
		cfg.Resupply = true
		n, err := p.build(cfg)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		defer n.Close()
		m.nets = append(m.nets, n)
		m.tcps = append(m.tcps, n.Transport())
	}
	p.setupDone()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	end := p.tr.eventSpan("converge", 0)
	start := time.Now()
	tds := make([]*provnet.TermDetector, meshNets)
	for i, n := range m.nets {
		if err := p.op(n.Driver().Start(ctx)); err != nil {
			return fmt.Errorf("start: %w", err)
		}
		tds[i] = n.StartTermination(ctx, provnet.TermConfig{})
	}
	// The engines' firing counter (traced passes) stops at the data
	// fixpoint; the detector declares some waves later.
	var settled time.Time
	var last float64 = -1
	regs := make([]*provnet.Metrics, meshNets)
	for i, n := range m.nets {
		regs[i] = n.Metrics()
	}
	timeout := time.After(meshTimeout)
	for _, td := range tds {
		for waiting := true; waiting; {
			select {
			case <-td.Done():
				waiting = false
			case <-timeout:
				return p.op(fmt.Errorf("termination not declared within %v", meshTimeout))
			case <-time.After(meshPoll):
				if p.tr != nil {
					if f := scrape(regs...)["provnet_engine_firings_total"]; f != last {
						last, settled = f, time.Now()
					}
				}
			}
		}
	}
	declared := time.Now()
	p.converge = declared.Sub(start)
	end()
	p.collectHeap()
	if err := p.op(tds[0].Err()); err != nil {
		return fmt.Errorf("termination: %w", err)
	}
	if _, err := m.awaitQuiet(); err != nil {
		return err
	}
	if got := digest(names, []string{"spCost"}, m.tuples); got != ref.converged {
		return oracleError("spCost union at convergence differs from the netsim reference")
	}
	if !p.full {
		return nil
	}
	rounds0 := scriptRounds(regs...)

	for i, e := range script {
		end := p.tr.eventSpan("event."+e.kind, uint64(i+1))
		start := time.Now()
		err := e.apply(m.nets[m.hostOf[e.from]].Driver())
		var at time.Time
		if err == nil {
			at, err = m.awaitQuiet()
		}
		end()
		if p.op(err) != nil {
			return fmt.Errorf("event %d (%s %s->%s): %w", i+1, e.kind, e.from, e.to, err)
		}
		p.events = append(p.events, float64(at.Sub(start).Nanoseconds())/1e6)
	}
	p.finish()
	if got := digest(names, []string{"spCost"}, m.tuples); got != ref.final {
		s := newLinkState(g)
		for _, e := range script {
			s.commit(e)
		}
		return oracleError("spCost union after the script differs from the netsim reference (%v)", checkSpCost(s, m.tuples))
	}
	var reps []*provnet.Report
	var stats []netsim.Stats
	for i, n := range m.nets {
		rep, err := n.Driver().AwaitQuiescence(ctx)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		p.work.Derivations += rep.Derivations
		p.work.Stored += rep.TuplesStored
		p.work.Retracted += rep.Retracted
		stats = append(stats, m.tcps[i].Stats())
		p.wireBytes += stats[i].Bytes
	}
	p.tables = ref.final
	p.collectLayers(reps, regs, stats, rounds0, meshEvents)
	if p.tr != nil {
		var waves uint64
		for _, td := range tds {
			waves = max(waves, td.Waves())
		}
		p.layer["term.waves"] = float64(waves)
		p.layer["term.declare_lag_ms"] = float64(declared.Sub(settled).Nanoseconds()) / 1e6
	}
	return nil
}
