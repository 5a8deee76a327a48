package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sort"
	"strings"

	"provnet"
)

// maxDown caps how many links a script keeps cut at once, so the graph
// never thins out.
const maxDown = 4

type link = [2]string

// linkState is the benchmark's own copy of the topology under churn:
// the input to the shortest-path oracle and to script choices.
type linkState struct {
	nodes []string
	orig  map[link]int64 // every link, at its build cost
	cost  map[link]int64 // live links
	down  []link         // cut links, oldest first
	// deck is a shuffled list of every link, dealt in order: scripts
	// touch each link about equally often, so their totals vary less
	// between seeds than with independent draws.
	deck  []link
	dealt int
}

func newLinkState(g *provnet.Graph) *linkState {
	s := &linkState{nodes: append([]string(nil), g.Nodes...), orig: map[link]int64{}, cost: map[link]int64{}}
	for _, l := range g.Links {
		s.orig[link{l.From, l.To}] = l.Cost
		s.cost[link{l.From, l.To}] = l.Cost
	}
	return s
}

// pick deals the next link of the deck that is among candidates,
// reshuffling when the deck runs out.
func (s *linkState) pick(rng *rand.Rand, candidates []link) link {
	ok := make(map[link]bool, len(candidates))
	for _, l := range candidates {
		ok[l] = true
	}
	for tries := 0; tries < 2*len(s.orig); tries++ {
		if s.dealt == len(s.deck) {
			if s.deck == nil {
				for l := range s.orig {
					s.deck = append(s.deck, l)
				}
				sortLinks(s.deck)
			}
			rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
			s.dealt = 0
		}
		l := s.deck[s.dealt]
		s.dealt++
		if ok[l] {
			return l
		}
	}
	return candidates[rng.Intn(len(candidates))]
}

func (s *linkState) live() []link {
	out := make([]link, 0, len(s.cost))
	for l := range s.cost {
		out = append(out, l)
	}
	sortLinks(out)
	return out
}

func sortLinks(ls []link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i][0] != ls[j][0] {
			return ls[i][0] < ls[j][0]
		}
		return ls[i][1] < ls[j][1]
	})
}

// dist is Dijkstra from src over the live links.
func (s *linkState) dist(src string) map[string]int64 {
	var ls []provnet.GraphLink
	for _, l := range s.live() {
		ls = append(ls, provnet.GraphLink{From: l[0], To: l[1], Cost: s.cost[l]})
	}
	g := provnet.CustomGraph(ls)
	return g.Dijkstra(src)
}

// linkEvent is one scripted topology change.
type linkEvent struct {
	kind     string // "cut", "restore" or "cost"
	from, to string
	cost     int64
}

func (e linkEvent) apply(d *provnet.Driver) error {
	if e.kind == "cut" {
		return d.CutLink(e.from, e.to)
	}
	return d.SetLink(e.from, e.to, e.cost)
}

func (s *linkState) commit(e linkEvent) {
	l := link{e.from, e.to}
	switch e.kind {
	case "cut":
		delete(s.cost, l)
		s.down = append(s.down, l)
	case "restore":
		for i, x := range s.down {
			if x == l {
				s.down = append(s.down[:i], s.down[i+1:]...)
				break
			}
		}
		s.cost[l] = e.cost
	default:
		s.cost[l] = e.cost
	}
}

// restorable returns the oldest cut link; with mustChange, the oldest
// whose build cost beats the current shortest distance between its ends,
// so that restoring it must change the installed best path between them.
func (s *linkState) restorable(mustChange bool) (link, bool) {
	for _, l := range s.down {
		if !mustChange {
			return l, true
		}
		if d, ok := s.dist(l[0])[l[1]]; !ok || s.orig[l] < d {
			return l, true
		}
	}
	return link{}, false
}

// next picks event i of a script. The mix is fixed — a cut, a cost
// change, a restore, a cost change — so scripts differ only in the order
// they touch links in: a candidate (a link a change to must move some best
// path) is cut or re-costed, and the oldest cut link is restored. A cost
// change raises a link above its build cost by 1 to 5, or returns it to
// its build cost. When the pattern's event is impossible (too many links
// down, nothing restorable) the event is a cost change.
func (s *linkState) next(rng *rand.Rand, i int, candidates []link, mustChange bool) linkEvent {
	switch i % 4 {
	case 0:
		if len(s.down) < maxDown {
			l := s.pick(rng, candidates)
			return linkEvent{kind: "cut", from: l[0], to: l[1]}
		}
	case 2:
		if l, ok := s.restorable(mustChange); ok {
			return linkEvent{kind: "restore", from: l[0], to: l[1], cost: s.orig[l]}
		}
	}
	l := s.pick(rng, candidates)
	c := s.orig[l]
	if s.cost[l] == c {
		c += 1 + rng.Int63n(5)
	}
	return linkEvent{kind: "cost", from: l[0], to: l[1], cost: c}
}

// tightLinks returns the live links that are a shortest path between
// their own ends: the links best paths are likely to route over.
func (s *linkState) tightLinks() []link {
	var out []link
	for _, l := range s.live() {
		if s.dist(l[0])[l[1]] == s.cost[l] {
			out = append(out, l)
		}
	}
	return out
}

// graphScript precomputes n events from the topology alone, for the
// workloads whose script must not depend on the program's tables.
func graphScript(g *provnet.Graph, seed int64, n int) []linkEvent {
	s := newLinkState(g)
	rng := rand.New(rand.NewSource(seed))
	out := make([]linkEvent, 0, n)
	for len(out) < n {
		e := s.next(rng, len(out), s.tightLinks(), false)
		s.commit(e)
		out = append(out, e)
	}
	return out
}

// checkSpCost compares spCost at every node with Dijkstra on the
// current graph: the shortest-path oracle.
func checkSpCost(s *linkState, tuples func(node, pred string) []provnet.Tuple) error {
	for _, src := range s.nodes {
		want := s.dist(src)
		delete(want, src)
		got := map[string]int64{}
		for _, t := range tuples(src, "spCost") {
			got[t.Args[1].Str] = t.Args[2].Int
		}
		if len(got) != len(want) {
			return oracleError("spCost at %s has %d destinations, Dijkstra %d", src, len(got), len(want))
		}
		for d, c := range want {
			if got[d] != c {
				return oracleError("spCost(%s,%s) = %d, Dijkstra %d", src, d, got[d], c)
			}
		}
	}
	return nil
}

// carrying returns the links some installed bestPath routes over.
func carrying(nodes []string, tuples func(node, pred string) []provnet.Tuple) []link {
	seen := map[link]bool{}
	for _, n := range nodes {
		for _, t := range tuples(n, "bestPath") {
			p := t.Args[2].List
			for i := 0; i+1 < len(p); i++ {
				seen[link{p[i].Str, p[i+1].Str}] = true
			}
		}
	}
	out := make([]link, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sortLinks(out)
	return out
}

// digest renders the named tables of every node as sorted lines and
// hashes them: the canonical final state passes are compared on.
func digest(nodes []string, preds []string, tuples func(node, pred string) []provnet.Tuple) string {
	var lines []string
	for _, n := range nodes {
		for _, pred := range preds {
			for _, t := range tuples(n, pred) {
				lines = append(lines, n+"\t"+t.String())
			}
		}
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}
