package main

import (
	"fmt"
	"time"

	"provnet"
	"provnet/internal/auth"
	"provnet/internal/datalog"
	"provnet/internal/netsim"
)

type metricDef struct{ name, unit string }

// perLayer is every per-layer metric a traced run reports, on every
// workload. A module a workload does not exercise reads 0 there: the
// predicted "no change". transport.* is netsim on three workloads and
// nettcp on tcp-mesh.
var perLayer = []metricDef{
	{"datalog.parse_s", "s"},
	{"auth.keygen_s", "s"},
	{"auth.keys_derived", "count"},
	{"auth.signed", "count"},
	{"auth.verified", "count"},
	{"auth.macs", "count"},
	{"auth.seal_s", "s"},
	{"auth.verify_s", "s"},
	{"engine.derivations", "count"},
	{"engine.tuples_stored", "count"},
	{"engine.retracted", "count"},
	{"engine.firings", "count"},
	{"engine.waves", "count"},
	{"engine.shadow_evictions", "count"},
	{"engine.arena_high_water", "count"},
	{"engine.dep_index_size", "count"},
	{"core.rounds", "count"},
	{"core.retract_rounds", "count"},
	{"core.quiesces", "count"},
	{"core.rounds_per_event", "rounds/event"},
	{"core.round_s", "s"},
	{"core.eval_residual_s", "s"},
	{"core.outside_round_s", "s"},
	{"core.views_published", "count"},
	{"transport.sends", "count"},
	{"transport.send_s", "s"},
	{"transport.drains", "count"},
	{"transport.drain_s", "s"},
	{"transport.msgs_per_drain", "msgs/drain"},
	{"transport.pending_max", "count"},
	{"nettcp.ack_mb", "MB"},
	{"nettcp.retransmits", "count"},
	{"nettcp.dup_dropped", "count"},
	{"nettcp.backpressured", "count"},
	{"nettcp.reconnects", "count"},
	{"nettcp.useful_frac", "ratio"},
	{"term.waves", "count"},
	{"term.declare_lag_ms", "ms"},
	{"storelog.appends", "count"},
	{"storelog.append_s", "s"},
	{"storelog.flushes", "count"},
	{"storelog.flush_s", "s"},
	{"storelog.seal_s", "s"},
	{"storelog.log_mb", "MB"},
	{"storelog.recover_s", "s"},
	{"provenance.trace_p50_ms", "ms"},
	{"provenance.trace_hops", "count"},
	{"provenance.trace_entries", "count"},
	{"queryapi.server_p50_ms", "ms"},
	{"queryapi.server_p90_ms", "ms"},
	{"queryapi.client_overhead_ms", "ms"},
	{"queryapi.traceback_p50_ms", "ms"},
	{"queryapi.traceback_p90_ms", "ms"},
	{"queryapi.max_qps", "1/s"},
	{"queryapi.trace_miss", "count"},
	{"bench.gen_lag_p90_ms", "ms"},
	{"bench.reconverge_samples", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// probeSetup times the set-up layers directly, outside the network
// build: parsing plus validation of the program, and deriving the keys
// of every principal of every network the workload builds.
func (p *pass) probeSetup(src string, principals []string, networks int) error {
	if p.tr == nil {
		return nil
	}
	start := time.Now()
	err := p.tr.span("datalog.parse", func() error {
		prog, err := provnet.ParseProgram(src)
		if err != nil {
			return err
		}
		return datalog.Validate(prog)
	})
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	p.layer["datalog.parse_s"] = time.Since(start).Seconds()
	start = time.Now()
	err = p.tr.span("auth.keygen", func() error {
		for i := 0; i < networks; i++ {
			dir := auth.NewDeterministicDirectory(p.seed)
			dir.SetKeyBits(keyBits)
			for _, name := range principals {
				if err := dir.AddPrincipal(name, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("keygen: %w", err)
	}
	p.layer["auth.keygen_s"] = time.Since(start).Seconds()
	p.layer["auth.keys_derived"] = float64(networks * len(principals))
	return nil
}

// collectLayers fills the per-layer metrics every workload shares, from
// the networks' reports and metrics registries, the transports' stats
// and the wrappers' counters. scriptRounds is the scheduler round count
// (forward + retract) when the event script started.
func (p *pass) collectLayers(reps []*provnet.Report, regs []*provnet.Metrics, stats []netsim.Stats, scriptRounds float64, events int) {
	if p.tr == nil {
		return
	}
	l := p.layer
	for _, r := range reps {
		l["auth.signed"] += float64(r.Signed)
		l["auth.verified"] += float64(r.Verified)
		l["auth.macs"] += float64(r.SealedMAC + r.OpenedMAC)
		l["engine.derivations"] += float64(r.Derivations)
		l["engine.tuples_stored"] += float64(r.TuplesStored)
		l["engine.retracted"] += float64(r.Retracted)
	}
	m := scrape(regs...)
	l["auth.seal_s"] = m["provnet_crypto_seal_seconds_sum"]
	l["auth.verify_s"] = m["provnet_crypto_verify_seconds_sum"]
	l["engine.firings"] = m["provnet_engine_firings_total"]
	l["engine.waves"] = m["provnet_engine_waves_total"]
	l["engine.shadow_evictions"] = m["provnet_engine_shadow_evictions_total"]
	l["engine.arena_high_water"] = m["provnet_engine_arena_high_water"]
	l["engine.dep_index_size"] = m["provnet_engine_dep_index_size"]
	l["core.rounds"] = m["provnet_scheduler_rounds_total"]
	l["core.retract_rounds"] = m["provnet_scheduler_retract_rounds_total"]
	l["core.quiesces"] = m["provnet_scheduler_quiesces_total"]
	if events > 0 {
		l["core.rounds_per_event"] = (l["core.rounds"] + l["core.retract_rounds"] - scriptRounds) / float64(events)
	}
	l["core.round_s"] = m["provnet_scheduler_round_seconds_sum"]

	t := p.tr
	l["transport.sends"] = float64(t.sends.Load())
	l["transport.send_s"] = float64(t.sendNs.Load()) / 1e9
	l["transport.drains"] = float64(t.drains.Load())
	l["transport.drain_s"] = float64(t.drainNs.Load()) / 1e9
	if d := t.drains.Load(); d > 0 {
		l["transport.msgs_per_drain"] = float64(t.drained.Load()) / float64(d)
	}
	l["transport.pending_max"] = float64(t.drainMax.Load())
	// Crypto time is summed over the scheduler's parallel workers, so the
	// residual can go negative when sealing runs on both cores at once.
	l["core.eval_residual_s"] = l["core.round_s"] - l["auth.seal_s"] - l["auth.verify_s"] - l["transport.send_s"] - l["transport.drain_s"]
	// Convergence and event time spent outside scheduler rounds: the
	// quiescence work (ReadView publication, store seal and flush) and
	// driver hand-offs.
	l["core.outside_round_s"] = p.measured() - p.setup.Seconds() - l["core.round_s"]

	var s netsim.Stats
	for _, x := range stats {
		s.Messages += x.Messages
		s.Bytes += x.Bytes
		s.AckBytes += x.AckBytes
		s.Retransmits += x.Retransmits
		s.DupDropped += x.DupDropped
		s.Backpressured += x.Backpressured
		s.Reconnects += x.Reconnects
	}
	l["nettcp.ack_mb"] = float64(s.AckBytes) / 1e6
	l["nettcp.retransmits"] = float64(s.Retransmits)
	l["nettcp.dup_dropped"] = float64(s.DupDropped)
	l["nettcp.backpressured"] = float64(s.Backpressured)
	l["nettcp.reconnects"] = float64(s.Reconnects)
	// Retransmitted bytes are not counted by the transport; they are
	// estimated at the mean charged frame size.
	if s.Messages > 0 {
		resent := float64(s.Retransmits) * float64(s.Bytes) / float64(s.Messages)
		l["nettcp.useful_frac"] = float64(s.Bytes) / (float64(s.Bytes) + float64(s.AckBytes) + resent)
	}

	l["storelog.appends"] = float64(t.appends.Load())
	l["storelog.append_s"] = float64(t.appendNs.Load()) / 1e9
	l["storelog.flushes"] = float64(t.flushes.Load())
	l["storelog.flush_s"] = float64(t.flushNs.Load()) / 1e9
	l["storelog.seal_s"] = float64(t.sealNs.Load()) / 1e9
}

// scriptRounds reads the scheduler round count at the start of a script.
func scriptRounds(regs ...*provnet.Metrics) float64 {
	m := scrape(regs...)
	return m["provnet_scheduler_rounds_total"] + m["provnet_scheduler_retract_rounds_total"]
}
