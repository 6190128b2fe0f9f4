package main

// metricDef is one named metric: the row BENCHMARK.json carries for it.
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (untraced runs).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.20},
	{"op_p50_us", "us", "lower", 0.20},
	{"op_tail_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"msgs_per_peer", "count", "lower", 0.10},
	{"bytes_per_peer", "B", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run, in ledger
// order. A metric that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	out := []metricDef{
		lo("topology.hops_calls", "count"), lo("topology.hops_busy_s", "s"),
		lo("topology.hops_ball_nodes_mean", "count"), lo("topology.graph_build_s", "s"),
		lo("sim.events", "count"), lo("sim.self_s", "s"), lo("sim.ns_per_event", "ns"),
		lo("sim.dispatch_probe_ns", "ns"),
		lo("p2p.sends", "count"), lo("p2p.send_busy_s", "s"), lo("p2p.flood_calls", "count"),
		lo("p2p.walk_calls", "count"), lo("p2p.walk_busy_s", "s"), lo("p2p.bytes", "B"),
		lo("wire.encode_probe_ns", "ns"), lo("wire.decode_probe_ns", "ns"), lo("wire.frame_bytes_p50", "B"),
	}
	for _, t := range handlerTypes {
		out = append(out, lo("core.handler_busy_s."+t, "s"), lo("core.handler_calls."+t, "count"))
	}
	return append(out,
		lo("core.timer_busy_s", "s"), lo("core.timer_calls", "count"),
		lo("core.construct_s", "s"), lo("core.construct_driver_s", "s"), lo("core.exec_busy_s", "s"),
		lo("core.join_busy_s", "s"), lo("core.leave_busy_s", "s"),
		lo("core.reconciliations", "count"), lo("core.reconcile_retransmits", "count"),
		lo("core.reconcile_aborts", "count"),
		hi("core.mean_coverage", "ratio"), lo("core.mean_stale_fraction", "ratio"),
		lo("liveness.since_probe_ns", "ns"), lo("liveness.merge_probe_ns", "ns"),
		lo("liveness.gossip_msgs", "count"), lo("liveness.gossip_bytes", "B"),
		lo("cells.map_busy_s", "s"), hi("cells.records_per_s", "1/s"),
		lo("saintetiq.incorporate_busy_s", "s"), lo("saintetiq.merge_probe_ns_per_leaf", "ns"),
		lo("saintetiq.appendwire_probe_ns_per_node", "ns"),
		lo("saintetiq.global_leaves", "count"), lo("saintetiq.global_nodes", "count"),
		lo("summarystore.swap_probe_us", "us"), hi("summarystore.shard_prune_ratio", "ratio"),
		lo("query.answer_probe_us_p50", "us"), lo("query.answer_probe_us_p99", "us"),
		lo("query.visited_nodes_mean", "count"),
		lo("routing.execute_busy_s", "s"), lo("routing.execute_us_p50", "us"), lo("routing.execute_us_p99", "us"),
		hi("gateway.qps", "1/s"), hi("gateway.hit_ratio", "ratio"),
		lo("gateway.hit_us_p50", "us"), lo("gateway.hit_us_p99", "us"),
		lo("gateway.miss_us_p50", "us"), lo("gateway.miss_us_p99", "us"),
		lo("gateway.inproc_hit_probe_ns", "ns"), lo("gateway.wire_overhead_us_p50", "us"),
		lo("gateway.coalesced", "count"), lo("gateway.shed", "count"), lo("gateway.installs", "count"),
		lo("gateway.invalidated_per_install", "count"), lo("gateway.install_us_p50", "us"),
		lo("bench.trace_overhead_ratio", "ratio"), lo("bench.spans", "count"),
		lo("bench.unattributed_s", "s"), hi("bench.attributed_ratio", "ratio"),
	)
}()

// sizes are the workload size constants. A run is a sequence of
// iterations — a fresh set-up on inputs made from its own sub-seed, then
// one measured phase — repeated until --seconds of measured time has
// passed. Most of the run-to-run spread of every metric is input spread
// (which peers the overlay makes hubs, which queries are popular), so the
// full sizes are about a quarter of the issue's prototype sizes: an
// iteration then takes 0.2–2 s, a 10 s run averages over 6–45 inputs,
// and every reported timing is a midmean or a pooled percentile over
// them.
type sizes struct {
	// construct_reconcile
	crPeers, crDomains, crWaves int
	// churn_gossip
	chPeers, chDomains int
	chHours            float64
	// data_reconcile
	drPeers, drDomains, drRows, drWaves int
	// serve_zipf / serve_miss: star size, query pool (a power of two),
	// answered queries per install, queries per client between two
	// popularity rotations, then measured and warm-up queries per client
	// for each workload.
	svSpokes, svRows, svPool, svInstall, svDrift int
	zipfQueries, zipfWarm                        int
	missQueries, missWarm                        int
	// The iterations every run makes whatever --seconds says. The exact
	// metrics (msgs_per_peer, bytes_per_peer, the report hash) are taken
	// over these alone, so they depend on the seed and never on the speed
	// of the host.
	crFixed, chFixed, drFixed, svFixed int
	// probeDiv divides every probe loop's repetition count.
	probeDiv int
}

// reps scales a probe loop's repetition count to the size class.
func (sz sizes) reps(n int) int { return max(1, n/sz.probeDiv) }

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{
			crPeers: 200, crDomains: 4, crWaves: 6,
			chPeers: 60, chDomains: 2, chHours: 1,
			drPeers: 24, drDomains: 2, drRows: 10, drWaves: 3,
			svSpokes: 8, svRows: 20, svPool: 256, svInstall: 64, svDrift: 50,
			zipfQueries: 300, zipfWarm: 150, missQueries: 160, missWarm: 40,
			crFixed: 2, chFixed: 2, drFixed: 2, svFixed: 2,
			probeDiv: 100,
		}
	}
	return sizes{
		crPeers: 2000, crDomains: 16, crWaves: 30,
		chPeers: 500, chDomains: 4, chHours: 4,
		drPeers: 120, drDomains: 4, drRows: 60, drWaves: 6,
		svSpokes: 24, svRows: 60, svPool: 16384, svInstall: 2048, svDrift: 1000,
		zipfQueries: 8000, zipfWarm: 4000, missQueries: 5000, missWarm: 1000,
		crFixed: 36, chFixed: 8, drFixed: 14, svFixed: 4,
		probeDiv: 1,
	}
}

// alpha is the freshness threshold of the simulation workloads (the
// paper's default).
const alpha = 0.3
