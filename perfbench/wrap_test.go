package main

import (
	"slices"
	"testing"

	"provnet"
	"provnet/internal/netsim"
	"provnet/internal/nettcp"
)

// The timing wrapper must expose exactly the optional surfaces core
// type-asserts on the transport it wraps: hiding InFlighter from the
// termination detector, or Notifier from the driver, would change what
// the traced run measures.
func TestWrapperForwardsExactlyTheOptionalSurfaces(t *testing.T) {
	tcp, err := nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if got := optionalSurfaces(tcp); len(got) != 6 {
		t.Fatalf("nettcp implements %v, want all six optional surfaces", got)
	}
	for _, inner := range []provnet.Transport{netsim.New(), tcp} {
		w, err := wrapTransport(inner, newTracer())
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if got, want := optionalSurfaces(w), optionalSurfaces(inner); !slices.Equal(got, want) {
			t.Errorf("%T wrapped exposes %v, unwrapped %v", inner, got, want)
		}
	}
}

type notifyOnly struct{ provnet.Transport }

func (notifyOnly) Notify(func()) {}

func TestWrapperRefusesPartialSurfaces(t *testing.T) {
	if _, err := wrapTransport(notifyOnly{netsim.New()}, newTracer()); err == nil {
		t.Fatal("a transport with only some optional surfaces was wrapped; it must be refused")
	}
}

func TestWrapperTimesSendsAndDrains(t *testing.T) {
	tr := newTracer()
	w, err := wrapTransport(netsim.New(), tr)
	if err != nil {
		t.Fatal(err)
	}
	w.AddNode("a")
	w.AddNode("b")
	for i := 0; i < 3; i++ {
		if err := w.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(w.Drain("b")); got != 3 {
		t.Fatalf("drained %d messages, want 3", got)
	}
	if tr.sends.Load() != 3 || tr.drains.Load() != 1 || tr.drainMax.Load() != 3 {
		t.Fatalf("counters sends=%d drains=%d max=%d, want 3/1/3", tr.sends.Load(), tr.drains.Load(), tr.drainMax.Load())
	}
	if w.Stats().Messages != 3 {
		t.Fatalf("stats not forwarded: %+v", w.Stats())
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 12}}
	if got := covered(iv, 1, 10); got != 3+5 {
		t.Fatalf("covered = %d, want 8 ([1,4) and [5,10))", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := percentile(vs, 50); got != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	if got := percentile(vs, 100); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 90); got != 0 {
		t.Fatalf("p90 of nothing = %v, want 0", got)
	}
}
