// Package p2psum is a Go implementation of "Summary Management in P2P
// Systems" (Hayek, Raschia, Valduriez, Mouaddib — EDBT 2008).
//
// The library combines two building blocks:
//
//   - SaintEtiQ-style database summarization: relational tables are
//     rewritten, through a fuzzy linguistic Background Knowledge (BK), into
//     compact multidimensional summaries arranged in a hierarchy. Summaries
//     can be queried directly — yielding approximate answers such as
//     "female anorexia patients with underweight or normal BMI are young" —
//     without touching the original records.
//
//   - Summary management for super-peer P2P networks: peers in a domain
//     (a super-peer and its clients) merge their local summaries into a
//     global summary that doubles as a semantic index: it localizes the
//     peers relevant to a query. Domains are constructed with a bounded
//     broadcast, maintained with push notifications and ring
//     reconciliations gated by a freshness threshold α, and survive churn.
//
// Three layers of API are exposed:
//
//   - Summarization: NewSummarizer / Summarize build hierarchies from
//     relations; Reformulate, Localize and AskApproximate query them.
//
//   - Simulation: NewSimulation builds a complete super-peer network on a
//     power-law overlay, runs the §4 management protocols under churn, and
//     routes queries with the SQ router and the baselines of the paper.
//
//   - Experiments: RunFigure4..RunFigure7, RunStorage, RunConcurrency and
//     the ablations regenerate every table and figure of the paper's
//     evaluation, plus the scale-out measurements this implementation adds.
//
// # Architecture
//
// The code is layered so each package depends only on the layer below it:
//
//	cmd/{p2psim,experiments,sumql,       CLIs (replica sweeps, figure sweeps, ad-hoc
//	     p2pnode,gateway}                 querying, one process of a TCP deployment,
//	                                      the gateway load driver)
//	p2psum (api, simulation, experiments) public facade, re-exports
//	internal/experiments                  figure/ablation drivers + worker-pool sweeps
//	internal/gateway                      serving edge: admission, singleflight,
//	                                      generation-keyed freshness cache, wire/HTTP
//	                                      frontends
//	internal/routing                      SQ router, baselines (§5.2, §6.2.3), remote
//	                                      query service (QueryService over MsgQuery)
//	internal/core                         summary management (§4.1–§4.3)
//	internal/query                        flexible-query selection/answering (§5)
//	internal/summarystore.Store           global-summary storage layer
//	├── summarystore.Single               one tree, one RWMutex (the paper's layout)
//	└── summarystore.Sharded              per-shard trees + locks, descriptor-range
//	internal/saintetiq                    summary hierarchies (§3.2) over internal/cells,
//	                                      internal/fuzzy, internal/bk, internal/data;
//	                                      peer extents are sorted slices, encoded as is
//	internal/p2p.Transport                overlay substrate interface
//	├── p2p.Network                       deterministic, discrete-event (internal/sim),
//	                                      one event heap on one goroutine
//	├── p2p.ChannelTransport              concurrent, real-time, sharded dispatch
//	└── p2p.TCPTransport                  real sockets: one process hosts part of the
//	                                      overlay, frames cross the wire (internal/wire)
//	internal/liveness                     membership views: alive/suspect/dead states,
//	                                      incarnation numbers, anti-entropy merges
//	internal/wire                         frame encoding + message-type codec registry
//	internal/topology                     overlay generators, graph partitions,
//	                                      point-to-point hop distance (Graph.Hops)
//	internal/par, internal/stats,         worker pool, counters/tables, churn and
//	internal/workload, internal/costmodel query workloads, the paper's cost models
//
// internal/core and internal/routing depend only on the p2p.Transport
// interface, never on a concrete transport. The sim-backed Network makes
// every run reproducible bit-for-bit given a seed; the channel-based
// transport trades that determinism for real concurrency, scaled per-link
// latencies and optional packet loss; the TCP transport runs the same
// protocol stack across real OS processes. SimOptions.Transport selects
// between the in-memory two for simulations; cmd/p2pnode deploys the TCP
// one.
//
// Transport is 21 methods: the static overlay (Len, Neighbors, Degree,
// Graph), membership (Liveness, Online, SetOnline, OnlineCount,
// OnlineIDs), messaging (SetHandler, SetDrop, SendNew, Flood,
// SelectiveWalk, RandomWalk), metering (Counter, Bytes), serialization
// with handlers (Exec, After, Settle) and the partition hook
// (SetLinkFilter). The static-overlay and membership methods and
// SetLinkFilter — ten of the 21 — do not depend on how a message moves, so
// they are written once, on the overlay core all three transports embed
// (internal/p2p/overlay.go); Counter and Bytes come the same way from the
// one ledger type beside it. Graph hands out the immutable topology.Graph
// the transport was built on; questions that need no transport state go
// to it directly — core's closer-summary-peer comparison (§4.1) is one
// Graph.Hops call, an early-exit bounded BFS on pooled scratch arrays
// that allocates nothing and may run from any dispatch group at once.
// The optional interfaces are p2p.DispatchGrouper (DispatchGroups,
// SetGroupBy) and p2p.Localizer.
//
// # The wire layer and the codec-registration contract
//
// internal/wire turns protocol messages into bytes: a versioned,
// self-delimiting frame encoding (header + payload blob, varint integers,
// compact varint floats) plus a registry mapping each message type to a
// PayloadCodec. The protocol packages register their payloads from init —
// core registers sumpeer/localsum/push/reconcile, routing registers
// query/query-response — so importing a protocol layer makes its messages
// serializable everywhere.
//
// The contract when adding a message type: export the payload struct,
// register exactly one PayloadCodec for the type, make Decode return the
// same concrete type handlers assert on, and add the type to the
// round-trip + truncation suites (internal/routing's
// TestEveryRegisteredTypeCovered fails any registered type without a test
// sample). Payload-less messages need no codec — the frame alone carries
// them.
//
// Registration buys two things. First, byte accounting becomes exact on
// every transport: a Send whose payload is serializable is charged the
// real encoded frame length (identical across Network, ChannelTransport
// and TCPTransport), and only unregistered payloads fall back to the
// Sizer estimate — so the paper's §6 byte figures are measured, not
// modeled. Second, the TCP transport can carry the message between
// processes: frames for remote nodes cross a persistent per-peer
// connection (length-prefixed units, one writer goroutine per peer, a
// hello handshake advertising the hosted node ids), frames for local
// nodes round-trip through encode/decode in-process so both deployments
// exercise one serialization pipeline. Drop callbacks for dead
// connections and offline remote nodes echo the frame back to the
// sender's process (§4.3 failure detection); TCPTransport.Settle extends
// quiescence across processes with a status exchange (sent/handled frame
// counters, stable over two rounds); Barrier aligns driver phases.
// Drivers on a partial-overlay transport consult p2p.Localizer — core's
// Construct broadcasts only local summary peers and walks only local
// stragglers, so every process drives exactly its share.
//
// # The wire hot path
//
// Encoding and decoding sit on every message of every transport, so the
// steady-state path allocates nothing and issues one syscall per batch,
// not per frame. The ownership rules that make this safe:
//
// Encode buffers are pooled. wire.GetEnc hands out a pooled encoder,
// Release returns it; between the two the caller owns the buffer
// exclusively. Frame.AppendTo appends a complete frame into a caller-
// provided slice (the pooled buffer), and SizeWithPayload prices a frame
// without materializing it, so the TCP send path reserves a length
// prefix, encodes the payload codec straight into the batch buffer and
// backfills the prefix — zero intermediate copies. Release drops buffers
// that grew past a cap (64 KiB) so one giant summary cannot pin memory in
// the pool forever. Under the race-detector build tag the pool poisons
// released buffers and panics on use-after-release or double release;
// regular builds pay no check on the hot path.
//
// Decode slices may be borrowed. wire.DecodeFrameShared parses a frame
// whose payload (and any strings) are views into the caller's buffer —
// the TCP read loop uses it on a read buffer it reuses for the next unit.
// The borrow is legal because of a registry-wide contract: a
// PayloadCodec's Decode returns a value that retains nothing of its
// input (the routing package's TestSharedDecodeEveryRegisteredType
// clobbers the buffer after decoding and fails any codec that kept a
// view). The frame's Type string is the one exception a borrower never
// sees: the shared decoder canonicalizes it through the codec registry's
// interned names, so dispatch never holds a string into a dead buffer.
// Everything longer-lived than the handler call — the channel transport's
// in-process delivery, stored payloads — uses the copying DecodeFrame.
//
// Writes coalesce per peer. Senders append complete units into the
// connection's batch buffer and never touch the socket; the per-peer
// writer goroutine swaps the whole batch out and flushes it with ONE
// write, lingering TCPConfig.FlushDelay for stragglers unless
// TCPConfig.FlushBytes already accumulated. Each connection meters both
// directions with EWMA flow rates and lifetime counters —
// TCPTransport.PeerStats snapshots them (rates, bytes, units, flushes,
// queued batch, in-flight frames, keepalive RTT), cmd/p2pnode dumps them
// on SIGUSR1, and CI's benchgate step fails the build if encoding a
// frame through the pooled path ever allocates again. Idle links are
// probed: a connection silent for TCPConfig.KeepAlive gets a ping whose
// pong carries the RTT into PeerStats, and a ping unanswered for twice
// that tears the connection down into the reconnect/liveness machinery.
//
// # The liveness layer
//
// Who is online is its own subsystem (internal/liveness), not a boolean
// array inside each transport. Every transport owns a liveness.View — one
// Entry per overlay node holding a state (alive, suspect, dead), an
// incarnation number and the node's current domain claim — and delegates
// Online/SetOnline/Neighbors filtering to it; Transport.Liveness exposes
// the view, and its observer hook (SetObserver) reports every transition.
// The §4.3 paths run one state machine on every backend:
//
//   - A graceful leave marks the node dead outright (it said goodbye).
//
//   - A silent failure, or any dropped message (core's drop callback),
//     files a suspicion: alive -> suspect at the current incarnation, and
//     the node counts as offline immediately. A confirmation timer —
//     scheduled through Transport.After, so the discrete-event engine stays
//     deterministic — promotes suspect -> dead (Config.SuspectTimeout)
//     unless the node rejoined first: a join re-enters alive at the NEXT
//     incarnation, superseding the stale suspicion.
//
//   - Conflicting records merge by incarnation first, state severity second
//     (dead > suspect > alive at equal incarnation).
//
// On the in-memory transports the single view is ground truth for the
// whole overlay. On TCP each process's view is authoritative for its local
// nodes only, and the rest converges through gossip: a periodic
// anti-entropy message (core.MsgGossip, Config.GossipInterval) carries a
// view tail to a deterministically round-robined neighbor, the receiver
// merges and answers once when it knows more, and — with
// Config.GossipPiggyback — push and reconcile payloads carry a tail as
// well, so membership rides the maintenance traffic for free.
//
// Tails are deltas, not snapshots. The view stamps every entry with the
// view version that last changed it, and each sender keeps a tiny link
// record per partner (the partner's last seen version, the last version
// it acknowledged merging, and an optimistic watermark of what has been
// sent). A tail carries only the entries changed since the watermark,
// plus the sender's version and an ack of the partner's; full snapshots
// happen on first contact, when the partner acks nothing (its Ack is 0 —
// views start at version 1, so 0 means it never merged us), when its
// version regresses (a restart), and on a periodic resync that rebases
// the watermark onto the acked version. A dropped gossip-carrying
// message rewinds the watermark to the acked version through the same
// drop callback §4.3 uses, so deltas lost in flight are re-covered.
// Config.GossipFullSnapshots restores the old behavior for equivalence
// tests and byte comparisons — the churn experiment shows the same
// coverage and staleness, bit-identical, at a fraction of the gossip
// bytes. A process
// that sees a remote claim superseding one of its OWN nodes refutes it
// (re-asserts its state above the remote incarnation), which is what
// brings a reconnected process — the TCP transport redials broken peer
// links with bounded exponential backoff and re-handshakes — back to alive
// in everyone's view. Coverage and DomainMembers read the view, not the
// local cooperation lists, so every process of a deployment reports the
// same figures once gossip converges; cmd/p2pnode dumps the view on
// SIGUSR1 and the CI kill-one-process job asserts the survivor's view
// marks a SIGKILLed process's nodes dead and still answers queries.
//
// The periodic gossip timers are rejected on the discrete-event Network:
// its Settle runs timers to quiescence and a self-re-arming timer would
// livelock it. Deterministic experiments call System.GossipRound at
// explicit virtual times instead (see the churn experiment, RunChurnScenario).
//
// # The fault-scenario engine
//
// internal/scenario scripts correlated fault events — partitions, flash
// crowds, adversarial membership claims — against any transport, through
// exactly two hooks plus the public membership API:
//
//   - Transport.SetLinkFilter is the partition hook. A scripted cut is an
//     immutable filter closure reporting which directed links are severed;
//     a message on a severed link is charged as sent but surfaces through
//     the §4.3 drop callback, and Neighbors, walks and floods treat the
//     link as gone. On TCP every process installs the same closure, so
//     both sides degrade symmetrically without iptables (cmd/p2pnode's
//     -sever/-heal-after flags run this drill on a live deployment).
//
//   - System.Leave/Join carry membership faults (Fail, Leave, FlashCrowd
//     via workload.BurstArrivals); the engine records which nodes the
//     script itself took down, and Heal uses that intent to refute false
//     suspicions (nodes marked dead across a cut that never actually
//     died) while leaving real deaths alone.
//
// The adversary (scenario.Adversary) needs no hook at all: it injects
// forged gossip — obituaries at the current incarnation, conflicting
// domain claims — through the regular codec-registered message path, and
// the liveness layer's refutation (incarnation supersession plus
// local-authority re-assert) must bounce it; the faults experiment
// asserts no suspicion files and no election fires while forgeries flow.
//
// The engine holds no clocks and draws no randomness: on the
// discrete-event Network a scripted run is bit-for-bit reproducible, and
// RunFaultsScenario sweeps partition/flashcrowd/adversary severities into
// time-to-reconverge, repair-traffic and coverage-dip series
// (BENCH_faults.json). Proactive summary-peer re-election
// (Config.ProactiveElection) rides the same machinery: a confirmed death
// of a summary peer triggers a deterministic successor pick, proposed as
// a codec-registered MsgElect and adopted domain-wide, so a domain
// survives its summary peer without waiting for every member's push to
// fail.
//
// # The serving edge
//
// internal/gateway puts a query gateway in front of a summary peer: the
// process that hosts a domain's global summary also serves it to many
// long-lived clients, so the edge absorbs what the protocol stack should
// never see. Clients speak either the wire codec (gw-hello/gw-query/
// gw-result units over one TCP connection, pipelined — DialWire / ServeWire)
// or a thin HTTP/JSON adapter (POST /query, GET /stats); cmd/p2pnode
// -gateway serves both from the node process and cmd/gateway is the load
// driver. Three mechanisms stack on the way in:
//
//   - Admission: every client session owns a token bucket (Config.Rate/
//     Burst), and queries that pass it queue for a bounded number of
//     upstream slots (Config.MaxConcurrent) in per-client FIFOs drained
//     round-robin — one chatty client cannot starve the rest, and a full
//     queue sheds with ErrOverloaded instead of growing.
//
//   - Singleflight: concurrent identical queries (same fingerprint —
//     routing.HashQuery is label-order invariant, and the HTTP edge
//     normalizes clause order first) coalesce onto one upstream
//     execution; followers block on the leader's flight and share its
//     answer object — unless an install made it stale meanwhile, when a
//     follower executes afresh rather than take an answer older than its
//     request.
//
//   - Freshness cache: a hit replays the answer without touching the
//     store — the wire path replays the pre-encoded result body at zero
//     allocations (CI benchgates BenchmarkGatewayCacheHit at 0
//     allocs/op). An entry keeps its wire body once the wire path has
//     built it and drops the answer graph; the graph is rebuilt from the
//     body on the entry's first in-process hit and kept from then on, so
//     in-process hits stay allocation-free too. An answer decodes as
//     views: its strings point into the body, and its class rows are
//     carved out of a few per-answer slabs — the socket client does the
//     same with each result frame, read into a body of its own. An entry is keyed on the
//     per-shard generation counters of its candidate shards, captured
//     BEFORE the upstream execution: the summary store bumps a shard's
//     generation on every mutation, and completeReconcile's install hook
//     (core.System.OnInstall) tells the gateway a delta landed. An entry
//     whose shard generations moved is
//     invalidated, never served — a reconciliation racing an execution
//     can only make the new entry born-stale. Entries over shards the
//     install did not swap keep serving (SwapFrom bumps only swapped
//     shards). When the store is not readable the fallback TTL is α times
//     the observed install cadence — the paper's freshness threshold
//     applied to the edge.
//
// RunGatewayScenario (BENCH_gateway.json) sweeps the edge over client
// counts and proves the invalidation contract mid-run; the system tests
// do the same against channel and TCP transports.
//
// # The dispatcher-group execution model
//
// The channel transport executes all protocol logic on dispatcher
// goroutines. Nodes are partitioned into dispatch groups
// (ChannelConfig.Dispatchers, ChannelConfig.GroupBy / SetGroupBy); each
// group owns an inbox channel and ONE dispatcher goroutine that drains it.
// Every message is carried by a goroutine that sleeps the scaled link
// latency and then enqueues the message on the inbox of the destination's
// group. The serialization guarantees are:
//
//   - Per node: a node belongs to exactly one group, so its handler never
//     runs twice concurrently and per-peer protocol state needs no locks.
//
//   - Per group: all handlers, fired timers (Transport.After routes the
//     callback to the owner node's group) and rerouted drop callbacks of
//     one group execute in one serial order.
//
//   - Drop callbacks run in the group of the message SENDER (msg.From):
//     §4.3 failure detection mutates sender-side state, so that is the
//     serialization it needs; the transport forwards the callback across
//     groups when sender and receiver differ.
//
//   - Transport.Exec quiesces every group (single-group mode runs the
//     closure on the dispatcher itself; sharded mode parks all dispatchers
//     at a barrier), so driver-side mutations never interleave with any
//     handler anywhere.
//
//   - Transport.Settle returns only after every in-flight message, relayed
//     send, rerouted drop and fired timer — across all groups — has been
//     handled, so drivers may read protocol state afterwards without
//     synchronization.
//
// With Dispatchers <= 1 the transport collapses to the original single
// dispatcher and behaves bit-identically to the pre-sharding
// implementation. With more groups, internal/core aligns groups with the
// paper's unit of independence: at summary-peer assignment it partitions
// the overlay by hop distance to the elected summary peers
// (topology.NearestSeeds) and maps every domain onto one group, so
// independent domains — which the paper maintains independently by design
// (§4: each domain keeps its own global summary) — construct, reconcile
// and answer concurrently. Cross-domain traffic and find walks remain
// correct for ANY grouping: the few cross-peer reads on handler paths
// (walk-accept inspecting another peer's domain pointer) go through
// atomics, and protocol Stats go through a lock.
//
// # The event engine at scale
//
// The discrete-event engine is sim.Engine, the SimJava stand-in of
// §6.2.1: one heap, one virtual clock, one goroutine, total order. The
// scale experiment (RunScaleScenario, BENCH_scale.json) drives it to
// 100k peers and fails on a report hash that differs between repeats.
//
// Three engine-level costs were flattened for that scale: events live by
// value in the heap's backing array (no per-event struct to allocate,
// pool or chase through a pointer, so the steady state allocates nothing
// — CI benchgates BenchmarkEventDispatch at 0 allocs/op), the queue is a
// typed binary heap that compares (time, sequence) fields directly — no
// container/heap interface dispatch, no per-event handle map, no cancel
// tombstones, since a timer that can turn obsolete (the reconciliation
// timeout) checks a sequence number when it fires instead of being
// cancelled — and the topology graph compacts its adjacency and latency
// rows into two flat backing arrays (topology.Graph.Compact), dropping
// the per-edge map that dominated memory at 100k nodes. A fourth cost sat outside the engine, in the
// driver: Construct asked for one hop distance per find/adopt and got a
// radius-6 BFS ball — nearly the whole power-law overlay — as a map.
// That question is now a point-to-point topology.Graph.Hops (CI
// benchgates BenchmarkHops at 0 allocs/op), which took the 100k-peer
// scale point from 436 s to 2.4 s at an unchanged report hash.
//
// # Which lock protects what
//
// The full concurrency inventory, top of the stack to the bottom:
//
//	core.System.statsMu        protects System.stats: handler paths of
//	                           different dispatch groups bump counters
//	                           concurrently; Stats() snapshots under it.
//	                           It also guards the summary-peer roster
//	                           (System.sps) that elections append to and
//	                           a confirmed death snapshots to notify.
//	core.Peer.sp / spHops      atomics: written by the owning peer's
//	                           handlers/Exec, read cross-group by find
//	                           walks and join scans.
//	core.Peer (everything else) NO lock — owned by the peer's dispatch
//	                           group (handlers, routed timers) and by
//	                           drivers under Transport.Exec; drivers read
//	                           only after Settle.
//	gateway.cache (16 stripes) one RWMutex per stripe of the freshness
//	                           cache: hits take RLock on one stripe,
//	                           insert/invalidate/scrub take Lock; the
//	                           generation check inside a hit reads the
//	                           store's atomic shard generations, no store
//	                           lock taken.
//	gateway.Gateway.fmu        the singleflight table: leaders insert a
//	                           flight, followers look one up; never held
//	                           across the upstream execution (followers
//	                           wait on the flight's done channel outside
//	                           it).
//	gateway.fairQueue.mu       upstream slots + per-client waiter FIFOs +
//	                           the round-robin ring; release hands a slot
//	                           to the next waiter by closing its channel
//	                           under the lock, the handoff itself happens
//	                           outside.
//	gateway.Client.mu          one session's token bucket (refill + take).
//	summarystore.Single.mu     one RWMutex around the single tree: queries
//	                           take RLock, Merge/SwapFrom take Lock.
//	summarystore.Sharded       one RWMutex PER SHARD: merges lock only the
//	                           shards owning the delta's leaves, queries
//	                           fan out under read locks — cross-domain and
//	                           cross-shard querying never serializes on one
//	                           lock.
//	liveness.View.mu           one RWMutex per transport's membership view:
//	                           entries (state/incarnation/SP claim) and the
//	                           version counter. Handlers, drivers, timers
//	                           and gossip merges all mutate through it;
//	                           reads (Coverage scans, StateOf) take RLock.
//	                           Online alone takes no lock: it loads a
//	                           per-node atomic bit the mutation stores
//	                           under mu.
//	liveness.View.obsMu        the observer hook pointer; the hook itself
//	                           runs outside both view locks and may be
//	                           invoked concurrently.
//	scenario.Engine.mu         leaf lock guarding the fault script's intent
//	                           maps (current partition sides, nodes the
//	                           script took down); never held across a
//	                           transport or System call — the installed
//	                           LinkFilter closes over immutable maps and
//	                           takes no lock at all.
//	internal/p2p               its locks (ledger.mu, the dispatch engine's,
//	                           the TCP connection's) are tabled in that
//	                           package's own comment.
//	par.ForEach                owns its worker pool; results slots are
//	                           index-addressed so workers never share.
//
// # Storage layer
//
// A summary peer's global summary lives behind summarystore.Store rather
// than being one bare SaintEtiQ tree. The Single implementation is the
// paper's layout; the Sharded implementation partitions the leaves by
// descriptor range on the widest BK attribute (falling back to a leaf-key
// hash when the shard count exceeds that vocabulary), giving each shard
// its own lock. Partner merges touch only the shards owning the delta's
// leaves, reconciliation installs per-shard deltas (unchanged shards keep
// their tree), and queries compile once, prune to the candidate shards
// named by their clauses, fan out across internal/par, and merge graded
// results. SimOptions.Shards (and -shards on the CLIs) selects the layout;
// both layouts answer structure-invariant queries identically.
//
// Transports also provide a serialized timer (Transport.After) that the
// reconciliation protocol uses for loss recovery: a dropped §4.2.2 ring
// token is retransmitted instead of wedging its summary peer.
//
// Experiment sweeps fan their (α × size) grids across a worker pool
// (ExperimentConfig.Workers); every grid point is an isolated simulation
// seeded purely from (Seed, point parameters), so parallel sweeps render
// tables bit-identical to sequential ones. The concurrency experiment
// (RunConcurrency) is the deliberate exception: it measures the wall-clock
// effect of per-domain dispatchers on overlapping reconciliations.
//
// Everything uses only the standard library. Simulations on the
// discrete-event transport are deterministic given a seed; distinct
// Simulation values are independent and may run concurrently.
package p2psum
