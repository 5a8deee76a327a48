package core

import (
	"fmt"
	"strings"
	"testing"

	"provnet/internal/obs"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestMetricsDoNotPerturb is the determinism pin for instrumentation:
// an identical run with and without a Metrics registry must produce
// byte-identical tables and the same report counters — observing the
// system must not change what it computes. The run converges, cuts a
// link and re-converges, at one worker (the in-caller schedule) and at
// four.
func TestMetricsDoNotPerturb(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(m *obs.Metrics) (string, []*Report) {
				n, err := NewNetwork(Config{
					Source:  BestPath,
					Graph:   topo.Line(5),
					Prov:    provenance.ModeDistributed,
					Workers: workers,
					Metrics: m,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := n.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				d := n.Driver()
				if err := d.CutLink("n1", "n2"); err != nil {
					t.Fatal(err)
				}
				cut, err := d.AwaitQuiescence(t.Context())
				if err != nil {
					t.Fatal(err)
				}
				return d.ReadView().Dump(), []*Report{rep, cut}
			}

			baseDump, baseReps := run(nil)
			m := obs.New()
			gotDump, gotReps := run(m)

			if gotDump != baseDump {
				t.Errorf("tables diverge with metrics enabled:\n--- without ---\n%s\n--- with ---\n%s", baseDump, gotDump)
			}
			for i := range baseReps {
				b, g := baseReps[i], gotReps[i]
				if g.Rounds != b.Rounds || g.Derivations != b.Derivations ||
					g.Messages != b.Messages || g.Bytes != b.Bytes || g.Retracted != b.Retracted {
					t.Errorf("report %d diverges with metrics enabled: rounds %d/%d derivations %d/%d messages %d/%d bytes %d/%d retracted %d/%d",
						i, b.Rounds, g.Rounds, b.Derivations, g.Derivations,
						b.Messages, g.Messages, b.Bytes, g.Bytes, b.Retracted, g.Retracted)
				}
			}
			last := gotReps[len(gotReps)-1]

			// The run must have populated the scheduler, engine, and
			// transport families plus the flight recorder.
			var sb strings.Builder
			if err := m.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			text := sb.String()
			for _, series := range []string{
				"provnet_scheduler_rounds_total",
				"provnet_scheduler_round_seconds_count",
				"provnet_engine_firings_total",
				"provnet_engine_waves_total",
				"provnet_engine_dep_index_size",
				"provnet_transport_messages_total",
				"provnet_transport_bytes_total",
				"provnet_crypto_verify_seconds_count",
				"provnet_scheduler_deltas_in_total",
				"provnet_scheduler_deltas_out_total",
			} {
				if !strings.Contains(text, series) {
					t.Errorf("missing series %s in exposition:\n%s", series, text)
				}
			}
			if m.Counter("provnet_engine_firings_total", "").Value() != last.Derivations {
				t.Errorf("firings counter %d != report derivations %d",
					m.Counter("provnet_engine_firings_total", "").Value(), last.Derivations)
			}
			checkStageCounts(t, m, gotReps)

			recs := m.Flight.Snapshot()
			if len(recs) == 0 {
				t.Fatal("flight recorder empty after a full run")
			}
			var firings int64
			sawQuiesce := false
			for _, r := range recs {
				firings += r.Firings
				if r.Kind == "quiesce" {
					sawQuiesce = true
				}
			}
			if firings != last.Derivations {
				t.Errorf("flight-record firings sum %d != report derivations %d", firings, last.Derivations)
			}
			if !sawQuiesce {
				t.Error("no quiesce record in flight recorder")
			}
		})
	}
}

// checkStageCounts pins the values the per-stage hooks record, not just
// their presence. reps are the epoch reports of one run, in order (the
// transport totals in the last one are cumulative; rounds are per
// epoch). On netsim with no drops every frame sealed is one message
// sent and one datagram drained; every round — forward or
// withdrawal-only — observes the round, seal and verify histograms
// exactly once; and the flight records add up to the counters.
func checkStageCounts(t *testing.T, m *obs.Metrics, reps []*Report) {
	t.Helper()
	rounds := 0
	for _, r := range reps {
		rounds += r.Rounds
	}
	messages := reps[len(reps)-1].Messages

	out := m.Counter("provnet_scheduler_deltas_out_total", "").Value()
	in := m.Counter("provnet_scheduler_deltas_in_total", "").Value()
	if out != messages || in != messages {
		t.Errorf("deltas out %d / in %d, want both = report messages %d", out, in, messages)
	}
	fwd := m.Counter("provnet_scheduler_rounds_total", "").Value()
	retract := m.Counter("provnet_scheduler_retract_rounds_total", "").Value()
	if fwd+retract != int64(rounds) {
		t.Errorf("rounds %d + retract rounds %d != report rounds %d", fwd, retract, rounds)
	}
	if retract == 0 {
		t.Error("no retract rounds counted after a link cut")
	}
	for _, family := range []string{
		"provnet_scheduler_round_seconds",
		"provnet_crypto_seal_seconds",
		"provnet_crypto_verify_seconds",
	} {
		if got := m.Histogram(family, "", obs.DefLatencyNanos, 1e-9).Count(); got != fwd+retract {
			t.Errorf("%s_count = %d, want rounds + retract rounds = %d", family, got, fwd+retract)
		}
	}

	var recOut, recIn int64
	for _, r := range m.Flight.Snapshot() {
		recOut += r.DeltasOut
		recIn += r.DeltasIn
	}
	if recOut != out || recIn != in {
		t.Errorf("flight records sum deltas out %d / in %d, counters %d / %d", recOut, recIn, out, in)
	}
}

// TestMetricsRetractionRounds pins retract-phase instrumentation: link
// churn through the driver must produce retract-kind rounds, a nonzero
// retracted counter, and stage counts that add up.
func TestMetricsRetractionRounds(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := obs.New()
			n, err := NewNetwork(Config{
				Source:  BestPath,
				Graph:   topo.Line(4),
				Workers: workers,
				Metrics: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := n.Driver()
			ctx := t.Context()
			rep, err := d.AwaitQuiescence(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.CutLink("n1", "n2"); err != nil {
				t.Fatal(err)
			}
			cut, err := d.AwaitQuiescence(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Counter("provnet_engine_retracted_total", "").Value(); got == 0 {
				t.Error("no retracted tuples counted after a link cut")
			}
			sawRetract := false
			for _, r := range m.Flight.Snapshot() {
				if r.Kind == "retract" {
					sawRetract = true
					break
				}
			}
			if !sawRetract {
				t.Error("no retract-kind flight record after a link cut")
			}
			checkStageCounts(t, m, []*Report{rep, cut})
		})
	}
}
