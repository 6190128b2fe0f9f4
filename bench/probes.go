package main

import (
	"sort"
	"time"

	"p2psum/internal/bk"
	"p2psum/internal/core"
	"p2psum/internal/liveness"
	"p2psum/internal/p2p"
	"p2psum/internal/query"
	"p2psum/internal/routing"
	"p2psum/internal/saintetiq"
	"p2psum/internal/sim"
	"p2psum/internal/summarystore"
	"p2psum/internal/wire"
)

// Probe loops: layers with no injectable boundary are timed after the
// workload, on its final state, by calling their public functions in a
// loop. A probe reports time per operation; the ledger multiplies it by
// the workload's exact counts to estimate the layer's share.

// perOp times reps calls of fn and returns nanoseconds per call.
func perOp(reps int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(reps)
}

// probeKernel times the event kernel alone: schedule and execute a no-op.
func probeKernel(m map[string]float64, sz sizes) {
	eng := sim.New()
	noop := func() {}
	m["sim.dispatch_probe_ns"] = perOp(sz.reps(200_000), func() {
		eng.At(eng.Now()+1, noop)
		eng.Step()
	})
}

// probeFrames times wire encode and decode on the median-size captured
// frame of each maintenance message type.
func probeFrames(m map[string]float64, sz sizes, tt *traceTransport) {
	if tt == nil {
		return
	}
	m["wire.frame_bytes_p50"] = median(tt.frames)
	var enc, dec []float64
	for _, typ := range []string{core.MsgPush, core.MsgReconcile, core.MsgGossip} {
		if tt.captured[typ] == nil {
			continue
		}
		frames := tt.captured[typ].frames
		sort.Slice(frames, func(i, j int) bool { return len(frames[i]) < len(frames[j]) })
		frame := frames[len(frames)/2]
		codec, _ := wire.Lookup(typ)
		f, err := wire.DecodeFrame(frame)
		if err != nil {
			continue
		}
		payload, err := codec.Decode(f.Payload)
		if err != nil {
			continue
		}
		msg := &p2p.Message{Type: typ, From: p2p.NodeID(f.From), To: p2p.NodeID(f.To), TTL: f.TTL, Hops: f.Hops, Payload: payload}
		reps := sz.reps(1 + 2_000_000/len(frame))
		// The sequential Network sizes every frame with a counting
		// encoder instead of building its bytes; time exactly that.
		enc = append(enc, perOp(reps, func() {
			ce := wire.GetCountEnc()
			_ = codec.Encode(ce, msg.Payload)
			fr := wire.Frame{Type: typ, From: f.From, To: f.To, TTL: f.TTL, Hops: f.Hops, HasPayload: true}
			_ = fr.SizeWithPayload(ce.Len())
			ce.Release()
		}))
		m["wire.encode_probe_ns."+typ] = enc[len(enc)-1]
		dec = append(dec, perOp(reps, func() {
			if f, err := wire.DecodeFrameShared(frame); err == nil {
				_, _ = codec.Decode(f.Payload)
			}
		}))
	}
	m["wire.encode_probe_ns"] = mean(enc)
	m["wire.decode_probe_ns"] = mean(dec)
}

// probeLiveness times the two view operations gossip is made of, on the
// end-of-run view: building a delta tail since a recent version, and
// merging such a delta into a copy of the view.
func probeLiveness(m map[string]float64, sz sizes, view *liveness.View) {
	after := uint64(0)
	if ver := view.Version(); ver > 32 {
		after = ver - 32
	}
	m["liveness.since_probe_ns"] = perOp(sz.reps(20_000), func() { view.Since(after) })
	snap := view.Snapshot()
	peer := liveness.NewView(len(snap), nil)
	peer.Merge(snap)
	delta, _ := view.Since(after)
	m["liveness.merge_probe_ns"] = perOp(sz.reps(20_000), func() { peer.MergeChanges(delta) })
}

// probeSummaries times the hierarchy operations of a data-level ring:
// merging a member's local summary (per leaf), sizing a global summary for
// the wire (per node), and installing one into a sharded store.
func probeSummaries(m map[string]float64, sz sizes, b *bk.BK, cfg core.Config, global *saintetiq.Tree, locals []*saintetiq.Tree) {
	if len(locals) > 64 {
		locals = locals[:64]
	}
	leaves := 0
	for _, l := range locals {
		leaves += l.LeafCount()
	}
	mergeNS := perOp(3, func() {
		fresh := saintetiq.New(b, cfg.TreeCfg)
		for _, l := range locals {
			_ = fresh.Merge(l)
		}
	})
	m["saintetiq.merge_probe_ns_per_leaf"] = mergeNS / float64(leaves)
	var encoded int
	m["saintetiq.appendwire_probe_ns_per_node"] = perOp(sz.reps(20), func() {
		ce := wire.GetCountEnc()
		global.AppendWire(ce)
		encoded = ce.Len()
		ce.Release()
	}) / float64(global.NodeCount())
	m["saintetiq.bytes_per_node"] = float64(encoded) / float64(global.NodeCount())
	m["summarystore.swap_probe_us"] = perOp(sz.reps(10), func() {
		summarystore.New(b, cfg.TreeCfg, cfg.Shards).SwapFrom(global)
	}) / 1e3
}

// probeServing runs the serving probes on the final state of a serving
// iteration: query evaluation over the pool, shard pruning, the in-process
// cache-hit path and answer encode/decode.
func probeServing(m map[string]float64, s *serveState) {
	sp := s.sys.SummaryPeers()[0]
	st := s.sys.Peer(sp).SummaryStore()
	global := st.Snapshot()
	m["saintetiq.global_leaves"] = float64(global.LeafCount())
	m["saintetiq.global_nodes"] = float64(global.NodeCount())
	var locals []*saintetiq.Tree
	for _, id := range s.sys.DomainMembers(sp) {
		locals = append(locals, s.sys.Peer(id).LocalTree())
	}
	sz := s.e.sz
	probeSummaries(m, sz, s.b, s.sys.Config(), global, locals)

	queries := s.pool
	if len(queries) > 2000 {
		queries = queries[:2000]
	}
	var lat, visited, pruned, sizes []float64
	var mid *routing.DataAnswer
	answers := make([]*routing.DataAnswer, 0, len(queries))
	for _, q := range queries {
		t0 := time.Now()
		sa, err := query.AnswerStore(st, q)
		lat = append(lat, float64(time.Since(t0))/1e3)
		if err != nil {
			continue
		}
		visited = append(visited, float64(sa.Visited))
		if cands, err := query.Candidates(st, q); err == nil {
			pruned = append(pruned, 1-float64(len(cands))/float64(st.NumShards()))
		}
		da := &routing.DataAnswer{Answer: sa.Answer, Visited: sa.Visited, Peers: routing.PeersOf(sa.Peers)}
		e := wire.GetEnc()
		routing.EncodeDataAnswer(e, da)
		sizes = append(sizes, float64(e.Len()))
		e.Release()
		answers = append(answers, da)
	}
	m["query.answer_probe_us_p50"] = percentile(lat, 0.50)
	m["query.answer_probe_us_p99"] = percentile(lat, 0.99)
	m["query.visited_nodes_mean"] = mean(visited)
	m["summarystore.shard_prune_ratio"] = mean(pruned)
	// Encode/decode the answer whose encoding has the median size.
	order := make([]int, len(answers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return sizes[order[i]] < sizes[order[j]] })
	if len(order) > 0 {
		mid = answers[order[len(order)/2]]
		m["wire.frame_bytes_p50"] = sizes[order[len(order)/2]]
	}
	if mid != nil {
		e := wire.GetEnc()
		routing.EncodeDataAnswer(e, mid)
		encoded := append([]byte(nil), e.Bytes()...)
		e.Release()
		m["wire.encode_probe_ns"] = perOp(sz.reps(20_000), func() {
			e := wire.GetEnc()
			routing.EncodeDataAnswer(e, mid)
			e.Release()
		})
		m["wire.decode_probe_ns"] = perOp(sz.reps(20_000), func() { _, _ = routing.DecodeDataAnswer(wire.NewDec(encoded)) })
	}

	// The in-process hit path: Client.Query on a hot entry, no socket.
	c := s.gw.Connect()
	defer c.Close()
	hot, origin := s.pool[0], p2p.NodeID(1)
	if _, _, err := c.Query(origin, hot); err == nil {
		m["gateway.inproc_hit_probe_ns"] = perOp(sz.reps(200_000), func() { _, _, _ = c.Query(origin, hot) })
	}
}
