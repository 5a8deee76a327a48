package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"provnet"
	"provnet/internal/core"
	"provnet/internal/netsim"
)

// The optional transport surfaces core type-asserts on Config.Transport.
// A wrapper that hid one would change the program's behaviour: without
// InFlighter the termination detector could declare a fixpoint over
// unacknowledged frames.
type (
	queueDepther interface{ QueueDepths() map[string]int }
	// socketSurface is every optional surface at once, as nettcp has.
	socketSurface interface {
		core.Notifier
		core.RestartNotifier
		core.InFlighter
		core.Flusher
		io.Closer
		queueDepther
	}
)

// optionalSurfaces reports which optional surfaces t implements, by name.
func optionalSurfaces(t provnet.Transport) []string {
	var out []string
	if _, ok := t.(core.Notifier); ok {
		out = append(out, "Notifier")
	}
	if _, ok := t.(core.RestartNotifier); ok {
		out = append(out, "RestartNotifier")
	}
	if _, ok := t.(core.InFlighter); ok {
		out = append(out, "InFlighter")
	}
	if _, ok := t.(core.Flusher); ok {
		out = append(out, "Flusher")
	}
	if _, ok := t.(io.Closer); ok {
		out = append(out, "Closer")
	}
	if _, ok := t.(queueDepther); ok {
		out = append(out, "QueueDepths")
	}
	return out
}

// timedTransport times Send/SendTagged and Drain on the wrapped
// transport and forwards everything else.
type timedTransport struct {
	inner provnet.Transport
	tr    *tracer
}

// timedSocket is timedTransport plus every optional surface, forwarded.
type timedSocket struct {
	*timedTransport
	socketSurface
}

// wrapTransport wraps t for a traced pass, forwarding exactly the
// optional surfaces t implements: none (netsim) or all (nettcp). Any
// other combination is refused rather than silently narrowed.
func wrapTransport(t provnet.Transport, tr *tracer) (provnet.Transport, error) {
	base := &timedTransport{inner: t, tr: tr}
	switch n := len(optionalSurfaces(t)); {
	case n == 0:
		return base, nil
	case n == 6:
		return timedSocket{timedTransport: base, socketSurface: t.(socketSurface)}, nil
	default:
		return nil, fmt.Errorf("perfbench: cannot wrap a transport with optional surfaces %v", optionalSurfaces(t))
	}
}

func (w *timedTransport) AddNode(name string) { w.inner.AddNode(name) }

func (w *timedTransport) Send(from, to string, payload []byte) error {
	start := w.tr.now()
	err := w.inner.Send(from, to, payload)
	w.sent(start)
	return err
}

func (w *timedTransport) SendTagged(from, to string, payload []byte, handshake bool) error {
	start := w.tr.now()
	err := w.inner.SendTagged(from, to, payload, handshake)
	w.sent(start)
	return err
}

func (w *timedTransport) sent(start int64) {
	w.tr.sends.Add(1)
	w.tr.sendNs.Add(w.tr.child("transport.send", start))
}

func (w *timedTransport) Drain(to string) []netsim.Message {
	start := w.tr.now()
	msgs := w.inner.Drain(to)
	w.tr.drains.Add(1)
	w.tr.drainNs.Add(w.tr.child("transport.drain", start))
	n := int64(len(msgs))
	w.tr.drained.Add(n)
	for {
		cur := w.tr.drainMax.Load()
		if n <= cur || w.tr.drainMax.CompareAndSwap(cur, n) {
			break
		}
	}
	return msgs
}

func (w *timedTransport) PendingFor(to string) int { return w.inner.PendingFor(to) }
func (w *timedTransport) PendingCount() int        { return w.inner.PendingCount() }
func (w *timedTransport) Stats() netsim.Stats      { return w.inner.Stats() }
func (w *timedTransport) ResetStats()              { w.inner.ResetStats() }

// timedStore times the Store seam's calls.
type timedStore struct {
	inner provnet.Store
	tr    *tracer
}

func (s *timedStore) Append(ev provnet.StoreEvent) error {
	start := s.tr.now()
	err := s.inner.Append(ev)
	s.tr.appends.Add(1)
	s.tr.appendNs.Add(s.tr.child("storelog.append", start))
	return err
}

func (s *timedStore) Seal() error {
	start := s.tr.now()
	err := s.inner.Seal()
	s.tr.seals.Add(1)
	s.tr.sealNs.Add(s.tr.child("storelog.seal", start))
	return err
}

func (s *timedStore) Flush() error {
	start := s.tr.now()
	err := s.inner.Flush()
	s.tr.flushes.Add(1)
	s.tr.flushNs.Add(s.tr.child("storelog.flush", start))
	return err
}

func (s *timedStore) Pending() int { return s.inner.Pending() }
func (s *timedStore) Close() error { return s.inner.Close() }

// requestHeader carries the client's request id to the server span.
const requestHeader = "X-Perfbench-Request"

// timedHandler wraps the query API's public Handler, recording one
// server span per request and its duration by request id.
type timedHandler struct {
	inner http.Handler
	tr    *tracer
	mu    sync.Mutex
	ms    map[uint64]float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, _ := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
	id, start := h.tr.begin()
	h.inner.ServeHTTP(w, r)
	d := h.tr.end(id, "queryapi.handler", 0, op, start)
	h.mu.Lock()
	h.ms[op] = float64(d) / 1e6
	h.mu.Unlock()
}
