package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"provnet"
	"provnet/internal/netsim"
	"provnet/internal/queryapi"
)

// traceback-serve shape: an open-loop query generator climbs a ladder
// of offered rates while a writer applies link events on a fixed
// schedule; both run for serveEvents × servePeriod.
const (
	serveEvents  = 100
	servePeriod  = 80 * time.Millisecond
	serveClients = 2 // request goroutines, one HTTP connection each
	// serveLimit is the latency limit on the traceback p90 that a rung
	// must meet to count toward query_max_qps.
	serveLimit = 50 * time.Millisecond
	// traceSamples is how many targets the traced pass walks directly
	// through Network.DerivationTree.
	traceSamples = 50
	maxDepth     = 12
)

// serveRungs are the offered rates, requests per second, each held for
// an equal share of the run. The middle rung reports traceback latency.
var serveRungs = []float64{150, 300, 450}

// request is one generator slot and its outcome.
type request struct {
	rung      int
	traceback bool
	due, sent time.Time
	rtt       time.Duration // from sent to body read
	latency   time.Duration // from due to body read
	op        uint64
	status    int
	miss      bool   // traceback 404: the target was withdrawn meanwhile
	body      string // sha256 of a table response body
	err       error
}

// tracebackPass: Best-Path with HMAC says, distributed provenance and a
// durable store log (fsync on) serves /v1/traceback and
// /v1/tables/bestPath on loopback while link events apply on schedule.
func tracebackPass(p *pass) error {
	g := pathGraph()
	if err := p.probeSetup(provnet.BestPath, g.Nodes, 1); err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir(), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir(), "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := provnet.OpenStoreLog(dir, provnet.StoreLogOptions{})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var store provnet.Store = log
	if p.tr != nil {
		store = &timedStore{inner: log, tr: p.tr}
	}
	cfg := provnet.Config{
		Source:  provnet.BestPath,
		Graph:   g,
		Auth:    provnet.AuthHMAC,
		Prov:    provnet.ProvDistributed,
		KeyBits: keyBits,
		Seed:    p.seed,
		Store:   store,
	}
	n, err := p.build(cfg)
	if err != nil {
		log.Close()
		return fmt.Errorf("setup: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			n.Close()
		}
	}()
	p.setupDone()

	ctx := context.Background()
	d := n.Driver()
	rep, err := p.fixpoint(ctx, n, true)
	if err != nil {
		return fmt.Errorf("converge: %w", err)
	}
	s := newLinkState(g)
	if err := p.aside(func() error { return checkSpCost(s, n.Tuples) }); err != nil {
		return err
	}
	if !p.full {
		return nil
	}
	rounds0 := scriptRounds(n.Metrics())
	script := graphScript(g, p.seed, serveEvents)

	base := queryapi.NewServer(n).Handler()
	handler := base
	var timed *timedHandler
	if p.tr != nil {
		timed = &timedHandler{inner: base, tr: p.tr, ms: map[uint64]float64{}}
		handler = timed
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	stopServer := func() {
		client.CloseIdleConnections()
		srv.Close()
		<-served
	}

	// Snapshot library: the table body of every view the writer saw
	// published. A table response matching none of them is a torn read.
	captured := map[string]bool{}
	capture := func() {
		rec := httptest.NewRecorder()
		base.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tables/bestPath", nil))
		captured[hashBody(rec.Body.Bytes())] = true
	}
	_ = p.aside(func() error { capture(); return nil })

	start := time.Now().Add(20 * time.Millisecond)
	span := time.Duration(serveEvents) * servePeriod
	var wg sync.WaitGroup
	reqs := make([][]request, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs[c] = generate(ctx, client, ln.Addr().String(), d, p.seed, c, start, span)
		}(c)
	}

	var writeErr error
	for i, e := range script {
		due := start.Add(time.Duration(i) * servePeriod)
		time.Sleep(time.Until(due))
		end := p.tr.eventSpan("event."+e.kind, uint64(i+1))
		err := e.apply(d)
		if err == nil {
			rep, err = d.AwaitQuiescence(ctx)
		}
		lat := time.Since(due)
		end()
		if p.op(err) != nil {
			writeErr = fmt.Errorf("event %d (%s %s->%s): %w", i+1, e.kind, e.from, e.to, err)
			break
		}
		p.events = append(p.events, float64(lat.Nanoseconds())/1e6)
		s.commit(e)
		_ = p.aside(func() error { capture(); return nil })
	}
	wg.Wait()
	stopServer()
	if writeErr != nil {
		return writeErr
	}

	var all []request
	for _, rs := range reqs {
		all = append(all, rs...)
	}
	if err := p.checkRequests(all, captured); err != nil {
		return err
	}
	p.finish()

	if err := p.aside(func() error { return checkSpCost(s, n.Tuples) }); err != nil {
		return err
	}
	p.wireBytes = n.Transport().Stats().Bytes
	p.work = workCounts{rep.Derivations, rep.TuplesStored, rep.Retracted}
	p.tables = digest(n.Nodes(), []string{"spCost", "bestPath"}, n.Tuples)
	p.collectLayers([]*provnet.Report{rep}, []*provnet.Metrics{n.Metrics()}, []netsim.Stats{n.Transport().Stats()}, rounds0, serveEvents)
	p.layer["core.views_published"] = float64(len(captured))
	p.queryFigures(all, timed)
	if err := p.traceDirect(n, d); err != nil {
		return err
	}

	// Durability oracle: the recovered store log equals the final tables.
	want := viewDump(d.ReadView())
	closed = true
	if err := n.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	rstart := time.Now()
	state, _, err := provnet.RecoverStoreLog(dir)
	p.layer["storelog.recover_s"] = time.Since(rstart).Seconds()
	if err != nil {
		return fmt.Errorf("recover store log: %w", err)
	}
	if got := state.LiveDump(); got != want {
		return oracleError("recovered store log (%d bytes) differs from the final tables (%d bytes)", len(got), len(want))
	}
	p.layer["storelog.log_mb"] = float64(dirBytes(dir)) / 1e6
	return nil
}

// generate runs one request goroutine: client c owns every serveClients-th
// slot of the rate ladder, sends each when due (or as soon as it can when
// late) and times it from when it was due.
func generate(ctx context.Context, client *http.Client, addr string, d *provnet.Driver, seed int64, c int, start time.Time, span time.Duration) []request {
	rng := rand.New(rand.NewSource(seed*31 + int64(c)))
	rungLen := span / time.Duration(len(serveRungs))
	var out []request
	for r, rate := range serveRungs {
		rungStart := start.Add(time.Duration(r) * rungLen)
		slots := int(rate * rungLen.Seconds())
		for k := c; k < slots; k += serveClients {
			rq := request{rung: r, traceback: k%4 != 3, due: rungStart.Add(time.Duration(float64(k) / rate * float64(time.Second)))}
			rq.op = uint64(r)<<40 | uint64(k+1)
			u := "http://" + addr + "/v1/tables/bestPath"
			var target string
			if rq.traceback {
				view := d.ReadView()
				nodes := view.Nodes()
				node := nodes[rng.Intn(len(nodes))]
				rows := view.Rows(node, "bestPath")
				if len(rows) == 0 {
					rq.traceback = false
				} else {
					target = rows[rng.Intn(len(rows))].Tuple.String()
					u = "http://" + addr + "/v1/traceback?node=" + url.QueryEscape(node) + "&tuple=" + url.QueryEscape(target) + "&maxdepth=" + strconv.Itoa(maxDepth)
				}
			}
			time.Sleep(time.Until(rq.due))
			rq.sent = time.Now()
			req, _ := http.NewRequestWithContext(ctx, "GET", u, nil)
			req.Header.Set(requestHeader, strconv.FormatUint(rq.op, 10))
			resp, err := client.Do(req)
			if err == nil {
				var body []byte
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				rq.status = resp.StatusCode
				if err == nil {
					err = checkResponse(&rq, target, body)
				}
			}
			done := time.Now()
			rq.rtt, rq.latency, rq.err = done.Sub(rq.sent), done.Sub(rq.due), err
			out = append(out, rq)
		}
	}
	return out
}

// checkResponse validates one response: a traceback must be a
// well-formed tree rooted at its target (or a 404 from a withdrawal
// race); a table read is kept as a body hash for the torn-read check.
func checkResponse(rq *request, target string, body []byte) error {
	switch {
	case rq.traceback && rq.status == http.StatusNotFound:
		rq.miss = true
		return nil
	case rq.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", rq.status, body)
	case !rq.traceback:
		rq.body = hashBody(body)
		return nil
	}
	var res queryapi.QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("traceback body: %w", err)
	}
	if res.V != queryapi.SchemaVersion || res.Kind != "traceback" || res.Traceback == nil || res.Traceback.Tuple != target {
		return oracleError("malformed traceback for %s: %.200s", target, body)
	}
	return nil
}

// checkRequests counts the requests as operations (an HTTP error or a
// non-2xx response other than a traceback's withdrawal-race 404 is a
// failure) and applies the read oracles: a malformed traceback or a
// table read matching no published snapshot fails the run.
func (p *pass) checkRequests(all []request, captured map[string]bool) error {
	torn := 0
	for _, rq := range all {
		if p.op(rq.err) != nil {
			if errors.Is(rq.err, errOracle) {
				return rq.err
			}
			continue
		}
		if !rq.traceback && !captured[rq.body] {
			torn++
		}
	}
	if torn > 0 {
		return oracleError("%d table reads matched no published snapshot", torn)
	}
	return nil
}

// queryFigures derives the query-side figures: traceback latency at the
// middle rung (from the due time), the highest rung that holds the
// latency limit without a growing backlog, withdrawal-race misses, and
// how late the generator ran.
func (p *pass) queryFigures(all []request, timed *timedHandler) {
	mid := len(serveRungs) / 2
	var midLat, lag []float64
	maxQPS := 0.0
	misses := 0
	for r, rate := range serveRungs {
		var lat []float64
		var lastLag time.Duration
		var lastDue time.Time
		for _, rq := range all {
			if rq.rung != r {
				continue
			}
			if rq.traceback && !rq.miss {
				lat = append(lat, float64(rq.latency.Nanoseconds())/1e6)
			}
			if rq.due.After(lastDue) {
				lastDue, lastLag = rq.due, rq.sent.Sub(rq.due)
			}
		}
		if r == mid {
			midLat = lat
		}
		if percentile(lat, 90) < float64(serveLimit.Milliseconds()) && lastLag < serveLimit {
			maxQPS = rate
		}
	}
	for _, rq := range all {
		lag = append(lag, float64(rq.sent.Sub(rq.due).Nanoseconds())/1e6)
		if rq.miss {
			misses++
		}
	}
	fig := map[string]float64{
		"traceback_p50_ms": percentile(midLat, 50),
		"traceback_p90_ms": percentile(midLat, 90),
		"query_max_qps":    maxQPS,
		"trace_miss":       float64(misses),
		"gen_lag_p90_ms":   percentile(lag, 90),
	}
	if p.tr == nil {
		p.extra = fig
		return
	}
	l := p.layer
	l["queryapi.traceback_p50_ms"] = fig["traceback_p50_ms"]
	l["queryapi.traceback_p90_ms"] = fig["traceback_p90_ms"]
	l["queryapi.max_qps"] = maxQPS
	l["queryapi.trace_miss"] = float64(misses)
	l["bench.gen_lag_p90_ms"] = fig["gen_lag_p90_ms"]
	var server, overhead []float64
	timed.mu.Lock()
	for _, rq := range all {
		if ms, ok := timed.ms[rq.op]; ok {
			server = append(server, ms)
			overhead = append(overhead, float64(rq.rtt.Nanoseconds())/1e6-ms)
		}
	}
	timed.mu.Unlock()
	l["queryapi.server_p50_ms"] = percentile(server, 50)
	l["queryapi.server_p90_ms"] = percentile(server, 90)
	l["queryapi.client_overhead_ms"] = percentile(overhead, 50)
}

// traceDirect walks the provenance of sampled bestPath facts through
// Network.DerivationTree, bypassing HTTP (traced passes only).
func (p *pass) traceDirect(n *provnet.Network, d *provnet.Driver) error {
	if p.tr == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(p.seed))
	view := d.ReadView()
	nodes := view.Nodes()
	var ms, hops, entries []float64
	for i := 0; i < traceSamples; i++ {
		node := nodes[rng.Intn(len(nodes))]
		rows := view.Rows(node, "bestPath")
		if len(rows) == 0 {
			continue
		}
		t := rows[rng.Intn(len(rows))].Tuple
		id, start := p.tr.begin()
		_, st, err := n.DerivationTree(node, t, provnet.ProvQueryOpts{MaxDepth: maxDepth})
		dur := p.tr.end(id, "provenance.trace", 0, 0, start)
		if err != nil {
			return fmt.Errorf("derivation tree of %s at %s: %w", t, node, err)
		}
		ms = append(ms, float64(dur)/1e6)
		hops = append(hops, float64(st.Messages))
		entries = append(entries, float64(st.Entries))
	}
	p.layer["provenance.trace_p50_ms"] = percentile(ms, 50)
	p.layer["provenance.trace_hops"] = percentile(hops, 50)
	p.layer["provenance.trace_entries"] = percentile(entries, 50)
	return nil
}

// viewDump renders a read view in StoreState.LiveDump's line format.
func viewDump(v *provnet.ReadView) string {
	var lines []string
	for _, node := range v.Nodes() {
		for _, pred := range v.Predicates(node) {
			for _, r := range v.Rows(node, pred) {
				lines = append(lines, node+"\t"+r.Tuple.String()+"\t"+r.Prov)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func hashBody(b []byte) string {
	h := sha256.Sum256(b)
	return string(h[:])
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if fi, err := de.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
