package main

import (
	"fmt"
	"io"
	"strings"
)

// The layer ledger: what the traced iterations' spans, the driver's exact
// counts and the probes say about where a workload's time went. All values
// are per traced iteration, so they compare with wall_s.

// layerSpans assigns every span kind that is a layer's own work to that
// layer. driver.wave and bench.sample are the benchmark's own code: their
// self time stays unattributed.
var layerSpans = []struct {
	layer string
	spans []spanID
}{
	{"topology", []spanID{spHops}},
	{"sim", []spanID{spSettle, spRun}},
	{"p2p", []spanID{spSend, spFlood, spWalk}},
	{"core", append([]spanID{spConstruct, spExec, spTimer, spJoin, spLeave, spModify, spGossipRound}, handlerSpans()...)},
	{"cells", []spanID{spCellsMap}},
	{"saintetiq", []spanID{spIncorporate}},
}

func isServing(w *workloadDef) bool { return strings.HasPrefix(w.name, "serve_") }

// ledger turns the recorder's spans and the traced iterations' summed
// counts into the per-layer metrics. k is the number of traced iterations.
func ledger(w *workloadDef, rec *recorder, layer map[string]float64, k int, tracedWall, overhead float64) map[string]float64 {
	n := float64(k)
	m := make(map[string]float64)
	for name, v := range layer {
		m[name] = v / n
	}
	st := rec.summarize()
	self := func(id spanID) float64 { return float64(st[id].self) / 1e9 / n }
	calls := func(id spanID) float64 { return float64(st[id].calls) / n }

	m["topology.hops_calls"] = calls(spHops)
	m["topology.hops_busy_s"] = self(spHops)
	if st[spHops].calls > 0 {
		m["topology.hops_ball_nodes_mean"] = m["topology.ball_nodes"] / calls(spHops)
	}
	m["sim.self_s"] = self(spSettle) + self(spRun)
	if m["sim.events"] > 0 {
		m["sim.ns_per_event"] = m["sim.self_s"] * 1e9 / m["sim.events"]
	}
	m["p2p.sends"] = calls(spSend)
	m["p2p.send_busy_s"] = self(spSend)
	m["p2p.flood_calls"] = calls(spFlood)
	m["p2p.walk_calls"] = calls(spWalk)
	m["p2p.walk_busy_s"] = self(spWalk)
	for i, t := range handlerTypes {
		m["core.handler_busy_s."+t] = self(spHandlerBase + spanID(i))
		m["core.handler_calls."+t] = calls(spHandlerBase + spanID(i))
	}
	m["core.timer_busy_s"] = self(spTimer)
	m["core.timer_calls"] = calls(spTimer)
	m["core.construct_s"] = float64(st[spConstruct].total) / 1e9 / n
	m["core.construct_driver_s"] = self(spConstruct)
	m["core.exec_busy_s"] = self(spExec)
	m["core.join_busy_s"] = self(spJoin)
	m["core.leave_busy_s"] = self(spLeave)
	m["cells.map_busy_s"] = self(spCellsMap)
	if m["cells.map_busy_s"] > 0 {
		m["cells.records_per_s"] = m["cells.records"] / m["cells.map_busy_s"]
	}
	m["saintetiq.incorporate_busy_s"] = self(spIncorporate)

	m["routing.execute_busy_s"] = self(spExecute)
	exec := rec.durations(spExecute)
	m["routing.execute_us_p50"] = percentile(exec, 0.50)
	m["routing.execute_us_p99"] = percentile(exec, 0.99)
	hit, miss := rec.durations(spAskHit), rec.durations(spAskMiss)
	m["gateway.hit_us_p50"] = percentile(hit, 0.50)
	m["gateway.hit_us_p99"] = percentile(hit, 0.99)
	m["gateway.miss_us_p50"] = percentile(miss, 0.50)
	m["gateway.miss_us_p99"] = percentile(miss, 0.99)
	m["gateway.install_us_p50"] = percentile(rec.durations(spInstall), 0.50)

	m["bench.spans"] = float64(len(rec.spans)) / n
	m["bench.trace_overhead_ratio"] = overhead
	if !isServing(w) {
		var attributed float64
		for _, l := range layerSpans {
			for _, id := range l.spans {
				m["layer."+l.layer] += self(id)
			}
			attributed += m["layer."+l.layer]
		}
		m["bench.unattributed_s"] = tracedWall - attributed
		m["bench.attributed_ratio"] = attributed / tracedWall
	}
	return m
}

// finishLedger adds what needs the probes: the serving round-trip split
// and the estimated shares of layers without a boundary.
func finishLedger(w *workloadDef, m map[string]float64) {
	if hit := m["gateway.hit_us_p50"]; hit > 0 {
		m["gateway.wire_overhead_us_p50"] = hit - m["gateway.inproc_hit_probe_ns"]/1e3
	}
	// Frame sizing: the Network charges every send its encoded length,
	// which costs about one encode of the frame. Deliveries per type stand
	// in for sends per type.
	for _, t := range handlerTypes {
		m["est.wire_s"] += m["core.handler_calls."+t] * m["wire.encode_probe_ns."+t] / 1e9
	}
	m["est.kernel_s"] = m["sim.events"] * m["sim.dispatch_probe_ns"] / 1e9
	m["est.liveness_s"] = m["core.handler_calls.gossip"] * (m["liveness.since_probe_ns"] + m["liveness.merge_probe_ns"]) / 1e9
	m["est.saintetiq_merge_s"] = m["saintetiq.merged_leaves"] * m["saintetiq.merge_probe_ns_per_leaf"] / 1e9
	if bpn := m["saintetiq.bytes_per_node"]; bpn > 0 {
		m["est.saintetiq_appendwire_s"] = m["p2p.tree_bytes"] / bpn * m["saintetiq.appendwire_probe_ns_per_node"] / 1e9
	}
	m["est.summarystore_swap_s"] = m["core.reconciliations"] * m["summarystore.swap_probe_us"] / 1e6
}

// printLedger writes the human-readable ledger of one traced run.
func printLedger(out io.Writer, w *workloadDef, m map[string]float64, tracedWall float64) {
	fmt.Fprintf(out, "-- ledger %s (per traced iteration, wall %.3f s, tracing overhead x%.3f)\n",
		w.name, tracedWall, m["bench.trace_overhead_ratio"])
	if isServing(w) {
		fmt.Fprintf(out, "   hit  round trip p50 %8.1f us = in-process gateway hit %.2f us + wire/socket %.1f us\n",
			m["gateway.hit_us_p50"], m["gateway.inproc_hit_probe_ns"]/1e3, m["gateway.wire_overhead_us_p50"])
		fmt.Fprintf(out, "   miss round trip p50 %8.1f us = routing.execute %.1f us + gateway and wire/socket %.1f us\n",
			m["gateway.miss_us_p50"], m["routing.execute_us_p50"], m["gateway.miss_us_p50"]-m["routing.execute_us_p50"])
		fmt.Fprintf(out, "   hit ratio %.4f, execute busy %.3f s of %.3f s wall, query.AnswerStore probe p50 %.1f us\n",
			m["gateway.hit_ratio"], m["routing.execute_busy_s"], tracedWall, m["query.answer_probe_us_p50"])
		return
	}
	for _, l := range layerSpans {
		s := m["layer."+l.layer]
		fmt.Fprintf(out, "   %-12s self %8.3f s  %5.1f%%\n", l.layer, s, 100*s/tracedWall)
	}
	fmt.Fprintf(out, "   %-12s      %8.3f s  %5.1f%%\n", "unattributed", m["bench.unattributed_s"], 100*m["bench.unattributed_s"]/tracedWall)
	fmt.Fprintf(out, "   construct %.3f s, of which topology.hops %.3f s\n", m["core.construct_s"], m["topology.hops_busy_s"])
	for _, e := range []struct{ key, text string }{
		{"est.kernel_s", "sim: events x no-op dispatch probe (inside sim)"},
		{"est.wire_s", "wire: push/reconcile/gossip deliveries x frame encode probe (inside p2p.send)"},
		{"est.liveness_s", "liveness: gossip deliveries x (since + delta merge) probes (inside core)"},
		{"est.saintetiq_merge_s", "saintetiq: merged leaves x merge probe (inside core handlers)"},
		{"est.saintetiq_appendwire_s", "saintetiq: tree bytes sent x AppendWire probe (inside p2p.send)"},
		{"est.summarystore_swap_s", "summarystore: reconciliations x SwapFrom probe (inside core handlers)"},
	} {
		if v := m[e.key]; v > 0 {
			fmt.Fprintf(out, "   estimate %8.3f s  %5.1f%%  %s\n", v, 100*v/tracedWall, e.text)
		}
	}
}
