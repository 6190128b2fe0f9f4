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
//   - Experiments: RunFigure4..RunFigure7, RunStorage and the ablations
//     regenerate every table and figure of the paper's evaluation, plus the
//     churn, faults and scale sweeps this implementation adds.
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
//	internal/summarystore.Store           global-summary storage layer: per-shard
//	                                      trees + locks, descriptor-range; one shard
//	                                      is the paper's single tree
//	internal/saintetiq                    summary hierarchies (§3.2) over internal/cells,
//	                                      internal/fuzzy, internal/bk, internal/data;
//	                                      a tree is a flat arena of node slots (int32
//	                                      links, strided count/grade/measure rows, peer
//	                                      spans) that caches each node's encoded length
//	internal/p2p.Transport                overlay substrate interface
//	├── p2p.Network                       deterministic, discrete-event (internal/sim),
//	                                      one event heap on one goroutine
//	├── p2p.ChannelTransport              concurrent, real-time, one dispatch lane
//	└── p2p.TCPTransport                  real sockets: one process hosts part of the
//	                                      overlay, frames cross the wire (internal/wire)
//	internal/liveness                     membership views: alive/suspect/dead states,
//	                                      incarnation numbers, anti-entropy merges
//	internal/wire                         frame encoding + message-type codec registry
//	internal/topology                     overlay generators, test fixtures,
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
// A simulated send costs only its payload. The Network copies the message
// into a slot of a slab it owns and schedules a delivery event naming the
// slot, not a closure; the handler gets a pointer into the slab, valid
// only for the call, and the slot is cleared and reused once it returns.
// The send is charged to a per-type slot of the ledger, sized through the
// codec cached next to that slot and one counting encoder, and its frame
// header is priced by arithmetic (wire.Frame.SizeWithPayload), so a send
// and its delivery allocate nothing (BenchmarkNetworkSendDeliver, gated
// at 0 in CI). Payloads that change hands hop by hop — the §4.2.2 ring
// token — travel by pointer and belong to whoever holds them.
//
// Transport is 20 methods: the static overlay (Len, Neighbors, Degree,
// Graph), membership (Liveness, Online, SetOnline, OnlineCount,
// OnlineIDs), messaging (SetHandler, SetDrop, SendNew, Flood,
// SelectiveWalk), metering (Counter, Bytes), serialization with handlers
// (Exec, After, Settle) and the partition hook (SetLinkFilter). The
// static-overlay and membership methods and SetLinkFilter — ten of the 20
// — do not depend on how a message moves, so they are written once, on
// the overlay core all three transports embed (internal/p2p/overlay.go);
// Counter and Bytes come the same way from the one ledger type beside it.
// Graph hands out the immutable topology.Graph the transport was built
// on; questions that need no transport state go to it directly — core's
// closer-summary-peer comparison (§4.1) is one Graph.Hops call, an
// early-exit bounded BFS on pooled scratch arrays that allocates nothing
// and may run from any goroutine at once. The optional interface is
// p2p.Localizer; p2p.DispatchGrouper and p2p.OriginScheduler are
// deprecated seams that only the bench module's tracing decorator still
// names.
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
// Summary hierarchies are most of the data-level bytes (localsum, push and
// the reconciliation token), and their one encoding (saintetiq.AppendWire,
// layout in internal/saintetiq/encode.go) carries only what a receiver
// cannot recompute: counts, the numeric sums, and each leaf's labels,
// grades, Min, Max and peer extent. DecodeWire rebuilds the leaf keys,
// internal grades, extents, Min and Max and every measure's Weight bit for
// bit, so a decoded tree equals the sent one field by field. Frame version
// 2 marks this layout; version 1 frames, which wrote every field, are
// refused.
//
// Registration buys two things. First, byte accounting is exact on every
// transport: a Send is charged the real encoded frame length (identical
// across Network, ChannelTransport and TCPTransport) — so the paper's §6
// byte figures are measured, not modeled. A payload whose type has no
// codec cannot be framed, and sending one panics on every transport.
// Second, the TCP transport can carry the message between processes:
// frames for remote nodes cross a persistent per-peer connection
// (length-prefixed units, one writer goroutine per peer, a hello
// handshake advertising the hosted node ids), frames for local
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
// write, lingering 500µs for stragglers unless 32 KiB already
// accumulated. Each connection meters both directions with EWMA flow
// rates and lifetime counters —
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
// bytes.
//
// Tails are built once per view version, and never encoded just to be
// counted. The view publishes at most one immutable snapshot per version
// (entries, stamps, each entry's encoded length and their total), built
// by the first tail of that version and dropped by the next mutation. A
// snapshot is a list of immutable 64-id chunks: the view keeps the chunks
// the last snapshot froze and a mutation drops only its own chunk's, so
// publishing re-copies only the chunks changed since — usually one. A
// tail's liveness.Delta is a window onto a snapshot, so taking one
// neither scans nor copies. The transports' counting encoder sizes a
// delta tail from the cached stamps and lengths of the chunks changed
// since its base, once per (snapshot, base) pair — the snapshot memoizes
// the figures for every later tail of that pair — and a full one from the
// cached total. A tail merged back into the view that published it —
// every tail on the in-memory transports, which share one view — merges
// only the entries stamped since, skips every chunk the view still
// shares with the snapshot, and merges nothing when the version has not
// moved. Deltas decoded from the wire are the same type over a plain
// []Change, and every tail merges through View.MergeChanges.
//
// A process that sees a remote claim superseding one of its OWN nodes
// refutes it (re-asserts its state above the remote incarnation), which
// is what brings a reconnected process — the TCP transport redials broken
// peer links with bounded exponential backoff and re-handshakes — back to
// alive in everyone's view. Coverage and DomainMembers read the view, not the
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
//   - System.Leave/Join carry membership faults (Leave, Join, flash
//     crowds via workload.BurstArrivals); the engine records which nodes
//     the script itself took down, and Heal uses that intent to refute false
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
// RunFaultsScenario sweeps partition/flashcrowd/adversary/spkill
// severities into time-to-reconverge, repair-traffic and coverage-dip
// series (BENCH_faults.json). Proactive summary-peer re-election
// (Config.ProactiveElection) rides the same machinery and adds no
// message: a confirmed death of a summary peer lets every surviving
// member compute the same successor from its liveness view; the
// successor promotes itself with a self-claim that names the peer it
// replaces (a successor mark in the gossip entry), and the members adopt
// it once that claim reaches their view. A domain thus survives its
// summary peer without waiting for every member's push to fail; the
// spkill points measure it.
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
// The system tests prove the invalidation contract against channel and
// TCP transports, one of them under duplicate-heavy load from concurrent
// sessions.
//
// # The one-lane execution model
//
// The goroutine-backed transports (channel and TCP) execute all protocol
// logic on ONE dispatcher goroutine per transport: a single inbox, drained
// in arrival order, with one pending-work count under one lock
// (internal/p2p/engine.go). On the channel transport every message is
// carried by a goroutine that sleeps the scaled link latency and then
// enqueues the message on that inbox; on TCP a socket reader enqueues the
// decoded frame. The serialization guarantees are:
//
//   - Handlers, fired timers (Transport.After) and drop callbacks execute
//     in one serial order, so per-peer protocol state needs no locks. A
//     drop callback mutates the SENDER's state (§4.3 failure detection);
//     running on the lane serializes it with the sender's handlers.
//
//   - Transport.Exec runs its closure on the dispatcher between two
//     deliveries, so driver-side mutations never interleave with a
//     handler. Exec or Settle called from the lane itself panics instead
//     of deadlocking.
//
//   - Transport.Settle returns only after every in-flight message, relayed
//     send, drop, fired timer and zero-delay timer has been handled, so
//     drivers may read protocol state afterwards without synchronization.
//
// Domains stay independent the way the paper keeps them independent: by
// messages alone (§4: each domain keeps its own global summary). What does
// run beside the lane are driver goroutines: gateway sessions and query
// drivers that read protocol state (stats, a peer's summary-peer pointer,
// global summaries) while handlers run, which is why those reads go
// through atomics, locks or the summary store's own locking.
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
//	core.System.statsMu        protects System.stats: handlers bump
//	                           counters on the dispatcher while driver
//	                           goroutines (gateway sessions, query
//	                           drivers) read them; Stats() snapshots
//	                           under it.
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
//	summarystore.shard.mu      one RWMutex PER SHARD: merges lock only the
//	                           shards owning the delta's leaves, queries
//	                           fan out under read locks — cross-domain and
//	                           cross-shard querying never serializes on one
//	                           lock. At one shard (the paper's layout) it
//	                           is the one lock around the single tree.
//	saintetiq.Tree caches      NO lock — a tree has one writer at a time
//	                           (under its shard's lock, or a token's
//	                           handler) and readers only between writes.
//	                           The encoded-length cache (Tree.sizes) is
//	                           the one that readers fill, so it is read
//	                           and stored through atomics. The cached class
//	                           sums and column masks are the writer's
//	                           alone: readers (Measure, sizing) read them
//	                           and compute a missing sum without storing it.
//	liveness.View.mu           one RWMutex per transport's membership view:
//	                           entries (state/incarnation/SP claim) and the
//	                           version counter. Handlers, drivers, timers
//	                           and gossip merges all mutate through it;
//	                           reads (Coverage scans, StateOf) take RLock.
//	                           Online alone takes no lock: it loads a
//	                           per-node atomic bit the mutation stores
//	                           under mu. Since publishes the version's
//	                           snapshot under RLock through an atomic
//	                           pointer, which the next mutation clears;
//	                           it re-freezes the chunks mutations dropped
//	                           under View.pubMu, a leaf lock serializing
//	                           publishers.
//	liveness.published.sizeMu  leaf lock of one snapshot's memo of tail
//	                           sizes by base version.
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
//	                           Used by sweeps, replica runs and the
//	                           store's large merges and install splits;
//	                           a query takes its shard read locks one
//	                           at a time on the caller's goroutine.
//
// # Storage layer
//
// A summary peer's global summary lives in a summarystore.Store rather
// than being one bare SaintEtiQ tree. The store partitions the leaves by
// descriptor range on the widest BK attribute (falling back to a leaf-key
// hash when the shard count exceeds that vocabulary), giving each shard
// its own lock; one shard is the paper's layout, a single tree that an
// install replaces with the reconciled version itself. Partner merges
// touch only the shards owning the delta's leaves, reconciliation installs
// per-shard deltas (unchanged shards keep their tree), and queries compile
// once, prune to the candidate shards named by their clauses, walk those
// in shard order on the caller's goroutine, and merge graded results.
// SimOptions.Shards (and -shards on p2psim) selects the shard count; every
// count answers structure-invariant queries identically.
//
// Transports also provide a serialized timer (Transport.After) that the
// reconciliation protocol uses for loss recovery: a dropped §4.2.2 ring
// token is retransmitted instead of wedging its summary peer.
//
// Experiment sweeps fan their (α × size) grids across a worker pool
// (ExperimentConfig.Workers); every grid point is an isolated simulation
// seeded purely from (Seed, point parameters), so parallel sweeps render
// tables bit-identical to sequential ones. Wall-clock effects are
// measured by Go benchmarks and the bench module, not by the experiments.
//
// Everything uses only the standard library. Simulations on the
// discrete-event transport are deterministic given a seed; distinct
// Simulation values are independent and may run concurrently.
package p2psum
