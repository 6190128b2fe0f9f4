package p2p

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2psum/internal/liveness"
	"p2psum/internal/topology"
	"p2psum/internal/wire"
)

// TCPTransport is the socket-backed Transport: a process hosts a subset of
// the overlay's nodes, serializes every protocol message into a wire frame
// (internal/wire) and ships frames to the processes hosting the remaining
// nodes over persistent TCP connections, so two real OS processes can form
// a summary domain, reconcile it and answer queries — the deployment
// direction ROADMAP names beyond the in-memory transports.
//
// Topology is shared knowledge: every process constructs the same
// topology.Graph (same generator, same seed) and agrees on which process
// hosts which node (TCPConfig.Hosts). Handler dispatch reuses the dispatch
// engine of the in-memory channel transport — one serialized dispatcher
// goroutine per process, Exec, After timers — so the protocol
// layers see the exact same execution model; only delivery differs: a
// frame bound for a remote node rides a per-peer writer goroutine onto the
// socket instead of a latency-sleeping carrier.
//
// Stream protocol: every unit on a connection is a 4-byte big-endian
// length followed by a 1-byte kind and the body. Data units carry one wire
// frame; control units implement the hello handshake (listen address plus
// hosted node ids), drop echoes (§4.3 failure detection across processes:
// a frame for an offline node bounces back and runs the sender's drop
// callback in the sender's process), the status exchange behind the
// distributed Settle, and named barriers for driver-side phase alignment.
//
// Byte accounting is exact: every message — local or remote — is charged
// the length of its encoded frame, so Bytes() equals the sum of
// encoded frame lengths and in-process runs report the same volumes as
// distributed ones. WireStats additionally reports the socket-level frame
// traffic.
//
// Limitations (documented, driver-visible): Online state is a local view —
// remote nodes count as online unless flipped locally; Flood and
// SelectiveWalk traverse the shared topology in the calling process
// (charging transmissions as the in-memory transports do) and their accept
// callbacks only see local protocol state. Drivers on a TCP deployment
// should therefore partition driver duties by locality (see Localizer),
// which internal/core's construction already does.
type TCPTransport struct {
	overlay
	ledger
	lim   tcpLimits
	eng   *dispatchEngine
	ln    net.Listener
	laddr string

	local  []bool   // id -> hosted in this process
	hostOf []string // id -> remote process address ("" when local)

	connMu       sync.Mutex
	conns        map[string]*tcpConn // peer listen address -> registered connection
	allConns     []*tcpConn          // every started connection until connDead, for Settle and Close
	reconnecting map[string]bool     // peer addresses with a live backoff loop
	closed       bool
	closeCh      chan struct{} // closed by Close; aborts reconnect backoffs

	wireMu sync.Mutex
	ws     WireStats

	statusMu sync.Mutex
	nonce    uint64
	statusCh map[uint64]chan statusInfo

	barrierMu sync.Mutex
	barriers  map[uint32]map[string]bool // tag -> peer addresses seen

	nextMsg atomic.Uint64
	wg      sync.WaitGroup
}

// TCPConfig configures a TCPTransport: where it listens and which process
// hosts which node. Connection management is one fixed policy (the
// constants below): a broken registered link is redialed, an idle one is
// probed, and a peer whose send backlog outgrows its bounds is cut into
// the §4.3 drop path.
type TCPConfig struct {
	// Listen is the TCP listen address, e.g. "127.0.0.1:7701". Use port 0
	// to let the kernel pick (ListenAddr reports the result).
	Listen string
	// Local lists the overlay nodes hosted in this process.
	Local []NodeID
	// Hosts maps every remote node to the listen address of the process
	// hosting it. It may also be installed later via SetHosts (before any
	// traffic), which test setups with kernel-picked ports need.
	Hosts map[NodeID]string
}

// The connection-management policy every TCPTransport runs.
const (
	// redialAttempts bounds the background redial loop started when a
	// registered peer connection breaks: the transport retries with
	// exponential backoff, from redialBackoff doubling up to
	// redialMaxBackoff, until the peer answers or the budget is spent —
	// sends meanwhile fall into the §4.3 drop path. A successful redial
	// re-runs the hello handshake, and the protocol layer's liveness
	// gossip reconciles the peer's nodes back to online.
	redialAttempts   = 8
	redialBackoff    = 100 * time.Millisecond
	redialMaxBackoff = 3 * time.Second
	// keepAliveInterval is the idle-link probe interval: a connection that
	// has received nothing for this long is pinged, and torn down when the
	// pong stays out for another 2×keepAliveInterval — the cheap liveness
	// signal for idle links, where no data frame would ever bounce. The
	// keepalive tick runs every half interval and also enforces the
	// backlog age bound of 2×keepAliveInterval.
	keepAliveInterval = 15 * time.Second
	// maxBacklogBytes bounds the unflushed send backlog of one peer
	// connection: past it the connection is cut and its queued units
	// discarded. It equals the largest unit a reader accepts.
	maxBacklogBytes = maxFrame
)

// tcpLimits carries the probe interval and the backlog byte bound into a
// transport. NewTCPTransport always runs keepAliveInterval and
// maxBacklogBytes; in-package tests shorten them through newTCPTransport so
// a probe or a backlog cut fits into a test's run time.
type tcpLimits struct {
	keepAlive    time.Duration // probe interval; tick keepAlive/2, backlog age bound 2×keepAlive
	backlogBytes int
}

const (
	// tcpTimerScale maps one virtual second of After delay onto real time
	// (1ms, matching the channel transport's fallback).
	tcpTimerScale = time.Millisecond
	// dialTimeout bounds one connection attempt.
	dialTimeout = 3 * time.Second
	// maxFrame bounds the accepted unit size in bytes.
	maxFrame = 64 << 20
	// flushDelay bounds the writer's coalescing wait: once a batch holds at
	// least one unit, the writer lingers this long for more before issuing
	// the socket write.
	flushDelay = 500 * time.Microsecond
	// flushBytes is the batch size that flushes without waiting out
	// flushDelay.
	flushBytes = 32 << 10
)

// Stream unit kinds.
const (
	kHello      = 1 // handshake: listen address + hosted node ids
	kData       = 2 // one wire frame (a protocol message)
	kDropEcho   = 3 // a frame bounced back to its sender's process (§4.3)
	kStatusReq  = 4 // distributed-settle probe
	kStatusResp = 5 // distributed-settle answer
	kBarrier    = 6 // named driver barrier marker
	kPing       = 7 // keepalive probe (body: sender's send-time nanos)
	kPong       = 8 // keepalive answer (body echoed back)
)

// statusInfo is one peer's answer to a settle probe, about the connection
// the probe arrived on.
type statusInfo struct {
	handled int64 // data frames from us the peer has fully handled
	sent    int64 // data frames the peer has enqueued to us
	idle    bool  // peer's dispatch lane was pending-free at reply time
}

// WireStats counts the socket-level data-frame traffic of a TCPTransport.
// Control units (hello, status, barriers, drop echoes) are excluded: they
// are transport overhead, not protocol cost.
type WireStats struct {
	// SentFrames and SentBytes count data frames enqueued to remote peers
	// (bytes are encoded frame lengths, without the length prefix).
	SentFrames, SentBytes int64
	// RecvFrames and RecvBytes count data frames received from peers.
	RecvFrames, RecvBytes int64
	// LocalFrames and LocalBytes count frames delivered within the
	// process (both endpoints hosted here) — they never touch a socket but
	// pass through the same encode/decode pipeline.
	LocalFrames, LocalBytes int64
	// ChargedMsgs and ChargedBytes count transmissions accounted without
	// a frame: walk/flood traversal charges and sends that never reached
	// a socket (severed links, dead connections). The byte-accounting
	// identity is therefore
	// Bytes().Total() == SentBytes + LocalBytes + ChargedBytes.
	ChargedMsgs, ChargedBytes int64
}

// tcpConn is one persistent peer connection: senders append complete units
// directly into a pooled batch buffer, a writer goroutine swaps the batch
// out and flushes it with one socket write (the throttled send-routine
// idiom — coalescing amortizes syscalls and small-packet overhead), a
// reader goroutine parses inbound units out of a reused read buffer. The
// batch never blocks senders on purpose: a dispatcher must never block on
// a peer's socket backpressure, or two processes flooding each other could
// deadlock in a cycle (dispatcher -> full send queue -> peer's reader ->
// peer's full inbox -> peer's dispatcher -> ...). Backpressure is applied
// by disconnection instead: a connection whose unflushed backlog passes
// maxBacklogBytes, or whose oldest unflushed unit waited 2×keepAliveInterval,
// is cut, so a stalled peer is dropped (§4.3 failure path), not waited
// on. Appending never blocks and never holds a lock across I/O.
type tcpConn struct {
	c    net.Conn
	dead atomic.Bool

	qmu     sync.Mutex
	qcond   *sync.Cond
	batch   *wire.Enc // pending units; nil while empty (writer owns no batch)
	pending int       // units in batch

	// Flow accounting (PeerStats): EWMA rates plus lifetime unit counts on
	// both directions, flush counts on the send side, ping RTT.
	sendFlow  flowRate
	recvFlow  flowRate
	sentUnits atomic.Int64
	recvUnits atomic.Int64
	flushes   atomic.Int64
	lastRecv  atomic.Int64 // unix nanos of the last received unit
	pingSent  atomic.Int64 // unix nanos of the outstanding ping (0: none)
	lastRTT   atomic.Int64 // nanos of the last completed ping round trip
	oldest    atomic.Int64 // unix nanos of the oldest unflushed unit (0: none)

	// Settle accounting: data frames enqueued on this connection, data
	// frames received on it and fully handled, and the peer's last
	// reported handled count (PeerStats' in-flight baseline). They live
	// and die with the socket, so frames lost with a cut connection leave
	// the distributed settle's comparison together with it.
	dataSent    atomic.Int64
	dataHandled atomic.Int64
	peerHandled atomic.Int64

	mu   sync.Mutex
	addr string // peer's listen address, learned from hello (dialed: preset)
}

func newTCPConn(c net.Conn) *tcpConn {
	conn := &tcpConn{c: c}
	conn.qcond = sync.NewCond(&conn.qmu)
	conn.lastRecv.Store(time.Now().UnixNano())
	return conn
}

func (c *tcpConn) peerAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// appendUnit appends one stream unit — length prefix, kind, body — to the
// batch buffer, building the body in place via fill (which must append
// through e and report success). The length prefix is reserved up front
// and backfilled, so even a body whose size is unknown beforehand (a frame
// encoded straight off its payload codec) costs no intermediate buffer. A
// failed fill rolls the batch back to its previous state. appendUnit
// reports false — nothing appended — once the connection is dead. It never
// blocks on the socket: only the writer does I/O.
func (c *tcpConn) appendUnit(kind byte, fill func(e *wire.Enc) bool) bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.dead.Load() {
		return false
	}
	if c.batch == nil {
		c.batch = wire.GetEnc()
	}
	e := c.batch
	start := e.Len()
	off := e.Skip(4)
	e.Uint8(kind)
	if fill != nil && !fill(e) {
		e.Truncate(start)
		return false
	}
	e.FillUint32(off, uint32(e.Len()-start-4))
	c.pending++
	if c.pending == 1 {
		c.oldest.Store(time.Now().UnixNano())
	}
	c.qcond.Signal()
	return true
}

// sendRaw appends one unit with a prebuilt body (control traffic).
func (c *tcpConn) sendRaw(kind byte, body []byte) bool {
	return c.appendUnit(kind, func(e *wire.Enc) bool {
		e.Raw(body)
		return true
	})
}

// takeBatch blocks until units are pending or the connection dies, lingers
// up to flushDelay for more units to coalesce (unless the batch already
// holds flushBytes), then hands the batch — and the number of units in it
// — to the writer. The caller owns the returned Enc and must Release it.
func (c *tcpConn) takeBatch() (*wire.Enc, int, bool) {
	c.qmu.Lock()
	for c.pending == 0 && !c.dead.Load() {
		c.qcond.Wait()
	}
	if c.pending > 0 && c.batch.Len() < flushBytes {
		c.qmu.Unlock()
		time.Sleep(flushDelay)
		c.qmu.Lock()
	}
	if c.pending == 0 || c.batch == nil {
		c.qmu.Unlock()
		return nil, 0, false
	}
	e := c.batch
	n := c.pending
	c.batch = nil
	c.pending = 0
	c.oldest.Store(0)
	c.qmu.Unlock()
	return e, n, true
}

// shutdown marks the connection dead exactly once, closing the socket and
// waking the writer (pending units are discarded — the peer is gone).
func (c *tcpConn) shutdown() {
	c.qmu.Lock()
	if !c.dead.Swap(true) {
		if c.batch != nil {
			c.batch.Release()
			c.batch = nil
		}
		c.pending = 0
		c.oldest.Store(0)
		c.qcond.Broadcast()
	}
	c.qmu.Unlock()
	c.c.Close()
}

// NewTCPTransport builds a TCP transport over the shared graph and starts
// listening. Every node starts online; handlers are only consulted for
// local nodes. Close must be called or the listener, dispatcher and
// connection goroutines leak.
func NewTCPTransport(graph *topology.Graph, cfg TCPConfig) (*TCPTransport, error) {
	return newTCPTransport(graph, cfg, tcpLimits{keepAliveInterval, maxBacklogBytes})
}

// newTCPTransport is NewTCPTransport under the given connection limits.
func newTCPTransport(graph *topology.Graph, cfg TCPConfig, lim tcpLimits) (*TCPTransport, error) {
	if len(cfg.Local) == 0 {
		return nil, errors.New("p2p: TCP transport needs at least one local node")
	}
	n := graph.Len()
	t := &TCPTransport{
		overlay:      overlay{graph: graph},
		lim:          lim,
		local:        make([]bool, n),
		hostOf:       make([]string, n),
		conns:        make(map[string]*tcpConn),
		reconnecting: make(map[string]bool),
		closeCh:      make(chan struct{}),
		statusCh:     make(map[uint64]chan statusInfo),
		barriers:     make(map[uint32]map[string]bool),
	}
	t.view = liveness.NewView(n, func(id int) bool { return t.IsLocal(NodeID(id)) })
	t.hops = t.chargeHops
	for _, id := range cfg.Local {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("p2p: local node %d out of range", id)
		}
		t.local[id] = true
	}
	if err := t.SetHosts(cfg.Hosts); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen %s: %w", cfg.Listen, err)
	}
	t.ln = ln
	t.laddr = ln.Addr().String()
	t.eng = newDispatchEngine(n, t.deliver)
	t.wg.Add(2)
	go t.acceptLoop()
	go t.keepaliveLoop()
	return t, nil
}

// SetHosts installs the node -> process address mapping for remote nodes.
// It must complete before any traffic flows (test setups listen on
// kernel-picked ports first, then exchange addresses).
func (t *TCPTransport) SetHosts(hosts map[NodeID]string) error {
	for id, addr := range hosts {
		if id < 0 || int(id) >= len(t.hostOf) {
			return fmt.Errorf("p2p: host mapping for out-of-range node %d", id)
		}
		if t.local[id] {
			return fmt.Errorf("p2p: node %d is local, cannot map to %s", id, addr)
		}
		t.hostOf[id] = addr
	}
	return nil
}

// ListenAddr returns the transport's actual listen address.
func (t *TCPTransport) ListenAddr() string { return t.laddr }

// IsLocal reports whether the node's handlers run in this process.
func (t *TCPTransport) IsLocal(id NodeID) bool {
	return id >= 0 && int(id) < len(t.local) && t.local[id]
}

// LocalIDs returns the sorted ids of the nodes hosted in this process.
func (t *TCPTransport) LocalIDs() []NodeID {
	var out []NodeID
	for i, l := range t.local {
		if l {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// peerAddrs returns the distinct remote process addresses of the host map.
func (t *TCPTransport) peerAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range t.hostOf {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// WireStats returns a snapshot of the socket-level data-frame counters.
func (t *TCPTransport) WireStats() WireStats {
	t.wireMu.Lock()
	defer t.wireMu.Unlock()
	return t.ws
}

// PeerStat is one live peer connection's flow snapshot (PeerStats).
type PeerStat struct {
	// Addr is the peer process's listen address.
	Addr string
	// SendRate and RecvRate are bytes/sec EWMA estimates of the socket
	// traffic in each direction (length prefixes included).
	SendRate, RecvRate float64
	// SentBytes and RecvBytes are lifetime socket bytes of this connection.
	SentBytes, RecvBytes int64
	// SentUnits and RecvUnits count stream units (data and control).
	SentUnits, RecvUnits int64
	// Flushes counts socket writes; SentUnits/Flushes is the mean batch
	// coalescing factor.
	Flushes int64
	// QueuedUnits and QueuedBytes measure the batch not yet flushed.
	QueuedUnits, QueuedBytes int
	// InFlight is the number of data frames sent on this connection and
	// not yet known handled — refreshed by status exchanges (Settle), so
	// between exchanges it is an upper bound.
	InFlight int64
	// RTT is the last completed keepalive round trip (0 before the first).
	RTT time.Duration
}

// PeerStats snapshots the per-peer flow counters of every registered
// connection, ordered by peer address. It is cheap enough for a signal
// handler: no I/O, a handful of mutexes.
func (t *TCPTransport) PeerStats() []PeerStat {
	t.connMu.Lock()
	addrs := make([]string, 0, len(t.conns))
	conns := make([]*tcpConn, 0, len(t.conns))
	for a, c := range t.conns {
		addrs = append(addrs, a)
		conns = append(conns, c)
	}
	t.connMu.Unlock()
	sort.Sort(&peerStatOrder{addrs, conns})
	out := make([]PeerStat, 0, len(conns))
	for i, c := range conns {
		st := PeerStat{
			Addr:      addrs[i],
			SentUnits: c.sentUnits.Load(),
			RecvUnits: c.recvUnits.Load(),
			Flushes:   c.flushes.Load(),
			RTT:       time.Duration(c.lastRTT.Load()),
		}
		st.SendRate, st.SentBytes = c.sendFlow.snapshot()
		st.RecvRate, st.RecvBytes = c.recvFlow.snapshot()
		c.qmu.Lock()
		st.QueuedUnits = c.pending
		if c.batch != nil {
			st.QueuedBytes = c.batch.Len()
		}
		c.qmu.Unlock()
		st.InFlight = max(c.dataSent.Load()-c.peerHandled.Load(), 0)
		out = append(out, st)
	}
	return out
}

// peerStatOrder sorts the address and connection slices in lockstep.
type peerStatOrder struct {
	addrs []string
	conns []*tcpConn
}

func (o *peerStatOrder) Len() int           { return len(o.addrs) }
func (o *peerStatOrder) Less(i, j int) bool { return o.addrs[i] < o.addrs[j] }
func (o *peerStatOrder) Swap(i, j int) {
	o.addrs[i], o.addrs[j] = o.addrs[j], o.addrs[i]
	o.conns[i], o.conns[j] = o.conns[j], o.conns[i]
}

// keepaliveLoop probes idle registered connections every half keepalive
// interval: a connection that has received nothing for the interval gets a
// ping (the pong carries the RTT into PeerStats), and a ping unanswered
// for twice the interval tears the connection down — the cheap liveness
// signal for idle links, which would otherwise only notice a silently dead
// peer on the next data frame. The same tick enforces the backlog age
// bound: a connection whose oldest unflushed unit has waited twice the
// interval is cut (its writer is stuck in a socket write the peer refuses
// to drain).
func (t *TCPTransport) keepaliveLoop() {
	defer t.wg.Done()
	ka := t.lim.keepAlive
	tick := time.NewTicker(ka / 2)
	defer tick.Stop()
	for {
		select {
		case <-t.closeCh:
			return
		case now := <-tick.C:
			t.connMu.Lock()
			conns := make([]*tcpConn, 0, len(t.conns))
			for _, c := range t.conns {
				conns = append(conns, c)
			}
			t.connMu.Unlock()
			for _, c := range conns {
				if o := c.oldest.Load(); o != 0 && now.Sub(time.Unix(0, o)) > 2*ka {
					t.connDead(c) // writer stalled: the backlog aged out
					continue
				}
				if ps := c.pingSent.Load(); ps != 0 {
					if now.Sub(time.Unix(0, ps)) > 2*ka {
						t.connDead(c) // peer hung: ping stayed unanswered
					}
					continue
				}
				if now.Sub(time.Unix(0, c.lastRecv.Load())) < ka {
					continue
				}
				nanos := now.UnixNano()
				c.pingSent.Store(nanos)
				var e wire.Enc
				e.Uvarint(uint64(nanos))
				c.sendRaw(kPing, e.Bytes())
			}
		}
	}
}

// --- connection management -------------------------------------------------

// helloBody encodes this process's handshake body.
func (t *TCPTransport) helloBody() []byte {
	var e wire.Enc
	e.String(t.laddr)
	locals := t.LocalIDs()
	e.Uvarint(uint64(len(locals)))
	for _, id := range locals {
		e.Varint(int64(id))
	}
	return e.Bytes()
}

// DialPeers connects to every remote process of the host map, retrying
// until the budget elapses — daemons racing to start use it as their
// connect phase.
func (t *TCPTransport) DialPeers(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, addr := range t.peerAddrs() {
		for {
			if _, ok := t.liveConn(addr); ok {
				break
			}
			if _, err := t.dial(addr); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("p2p: dial %s: %w", addr, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// liveConn returns the registered connection for the address, if any.
func (t *TCPTransport) liveConn(addr string) (*tcpConn, bool) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	c, ok := t.conns[addr]
	return c, ok
}

// dial opens, registers and hands off one connection to addr.
func (t *TCPTransport) dial(addr string) (*tcpConn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	conn := newTCPConn(c)
	conn.addr = addr
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		c.Close()
		return nil, errors.New("p2p: transport closed")
	}
	if existing, ok := t.conns[addr]; ok {
		// Simultaneous dials: keep the registered one, use the new socket
		// read-only (the peer may have registered it on its side).
		t.connMu.Unlock()
		if t.startConn(conn) {
			conn.sendRaw(kHello, t.helloBody())
		}
		return existing, nil
	}
	t.conns[addr] = conn
	t.connMu.Unlock()
	if !t.startConn(conn) {
		t.connMu.Lock()
		if t.conns[addr] == conn {
			delete(t.conns, addr)
		}
		t.connMu.Unlock()
		return nil, errors.New("p2p: transport closed")
	}
	conn.sendRaw(kHello, t.helloBody())
	return conn, nil
}

// startConn launches the reader and writer goroutines of a connection,
// registering it for Close under the same lock Close sets closed under —
// a connection appearing concurrently with Close is either shut down by
// Close (registered first) or refused here (closed seen first); its
// goroutines can never outlive wg.Wait. It reports whether the connection
// was started.
func (t *TCPTransport) startConn(conn *tcpConn) bool {
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		conn.shutdown()
		return false
	}
	t.allConns = append(t.allConns, conn)
	t.wg.Add(2)
	t.connMu.Unlock()
	go t.writeLoop(conn)
	go t.readLoop(conn)
	return true
}

// acceptLoop registers inbound connections; their identity arrives with
// the hello unit.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn := newTCPConn(c)
		t.connMu.Lock()
		if t.closed {
			t.connMu.Unlock()
			c.Close()
			return
		}
		t.connMu.Unlock()
		t.startConn(conn)
	}
}

// writeLoop flushes the connection's batch buffer onto the socket: it
// takes whatever units have coalesced (lingering flushDelay for stragglers
// unless flushBytes already accumulated), issues one write for the whole
// batch, and returns the buffer to the encoder pool. A write error marks
// the connection dead: subsequent sends to the peer run the drop callback
// instead (§4.3 failure detection for dead connections).
func (t *TCPTransport) writeLoop(conn *tcpConn) {
	defer t.wg.Done()
	for {
		e, units, ok := conn.takeBatch()
		if !ok {
			conn.c.Close()
			return
		}
		b := e.Bytes()
		_, err := conn.c.Write(b)
		n := int64(len(b))
		e.Release()
		conn.sendFlow.add(n)
		conn.sentUnits.Add(int64(units))
		conn.flushes.Add(1)
		if err != nil {
			t.connDead(conn)
			return
		}
	}
}

// readLoop parses units off the socket until it breaks. The body buffer is
// reused across units: handleUnit fully consumes every borrowed byte before
// returning (frames decode their payloads through the codecs, control
// bodies are copied), so no allocation rides the per-unit path.
func (t *TCPTransport) readLoop(conn *tcpConn) {
	defer t.wg.Done()
	defer t.connDead(conn)
	br := bufio.NewReader(conn.c)
	hdr := make([]byte, 4)
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr))
		if n < 1 || n > maxFrame {
			return // corrupt or hostile length
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		conn.recvFlow.add(int64(4 + n))
		conn.recvUnits.Add(1)
		conn.lastRecv.Store(time.Now().UnixNano())
		t.handleUnit(conn, body[0], body[1:])
		if cap(body) > maxReadBuf {
			body = nil // give a one-off huge frame's buffer back to the GC
		}
	}
}

// maxReadBuf bounds the reused read buffer kept across units.
const maxReadBuf = 1 << 20

// connDead unregisters a broken connection, drops it from allConns, shuts
// it down and — when the peer is part of the host map — starts the
// background reconnect loop.
func (t *TCPTransport) connDead(conn *tcpConn) {
	if conn.dead.Load() {
		return
	}
	conn.shutdown()
	addr := conn.peerAddr()
	wasRegistered := false
	t.connMu.Lock()
	if i := slices.Index(t.allConns, conn); i >= 0 {
		t.allConns = slices.Delete(t.allConns, i, i+1)
	}
	if addr != "" && t.conns[addr] == conn {
		delete(t.conns, addr)
		wasRegistered = true
	}
	t.connMu.Unlock()
	if wasRegistered && t.isPeerAddr(addr) {
		t.scheduleReconnect(addr)
	}
}

// isPeerAddr reports whether the address hosts nodes of the shared map —
// only those peers are worth redialing.
func (t *TCPTransport) isPeerAddr(addr string) bool {
	for _, a := range t.hostOf {
		if a == addr {
			return true
		}
	}
	return false
}

// scheduleReconnect starts one background redial loop for the peer, with
// bounded exponential backoff (redialAttempts, redialBackoff,
// redialMaxBackoff). At most one loop runs per address; Close aborts the
// backoff sleep. A successful dial re-runs the hello handshake (dial always
// sends it), after which the protocol layer's liveness gossip reconciles
// the peer's nodes back to online in both views.
func (t *TCPTransport) scheduleReconnect(addr string) {
	t.connMu.Lock()
	if t.closed || t.reconnecting[addr] {
		t.connMu.Unlock()
		return
	}
	t.reconnecting[addr] = true
	t.wg.Add(1)
	t.connMu.Unlock()
	go func() {
		defer t.wg.Done()
		defer func() {
			t.connMu.Lock()
			delete(t.reconnecting, addr)
			t.connMu.Unlock()
		}()
		backoff := redialBackoff
		for attempt := 0; attempt < redialAttempts; attempt++ {
			select {
			case <-time.After(backoff):
			case <-t.closeCh:
				return
			}
			if _, ok := t.liveConn(addr); ok {
				return // the peer dialed us (or a send-path dial won)
			}
			if _, err := t.dial(addr); err == nil {
				return
			}
			backoff = min(2*backoff, redialMaxBackoff)
		}
	}()
}

// connFor returns the live connection for addr, dialing once on demand.
func (t *TCPTransport) connFor(addr string) (*tcpConn, bool) {
	conn, ok := t.liveConn(addr)
	if !ok {
		var err error
		if conn, err = t.dial(addr); err != nil {
			return nil, false
		}
	}
	return conn, true
}

// backlogExceeded reports whether the connection's unflushed backlog is
// over the byte bound. It takes and releases the queue lock itself —
// callers must not hold it, because the teardown they trigger on a true
// result (shutdown) locks the same mutex.
func (t *TCPTransport) backlogExceeded(conn *tcpConn) bool {
	conn.qmu.Lock()
	queued := 0
	if conn.batch != nil {
		queued = conn.batch.Len()
	}
	conn.qmu.Unlock()
	return queued > t.lim.backlogBytes
}

// enqueue hands one control unit to the peer's writer, dialing once on
// demand. It reports false when the peer is unreachable or was cut for
// exceeding its backlog budget.
func (t *TCPTransport) enqueue(addr string, kind byte, body []byte) bool {
	conn, ok := t.connFor(addr)
	if !ok || !conn.sendRaw(kind, body) {
		return false
	}
	if t.backlogExceeded(conn) {
		t.connDead(conn) // stalled peer: cut instead of queueing unboundedly
		return false
	}
	return true
}

// enqueueFrame appends msg's frame as one unit of the given kind straight
// into the peer's batch buffer — the zero-copy send path: the payload
// codec writes into the same pooled buffer the socket write reads from.
// size is the precomputed frame length (frameSize), asserted against what
// the codec actually wrote.
func (t *TCPTransport) enqueueFrame(addr string, kind byte, msg *Message, size int64) bool {
	conn, ok := t.connFor(addr)
	if !ok {
		return false
	}
	ok = conn.appendUnit(kind, func(e *wire.Enc) bool {
		start := e.Len()
		appendFrame(e, msg)
		if int64(e.Len()-start) != size {
			panic(fmt.Sprintf("p2p: frame for %q measured %d bytes, wrote %d",
				msg.Type, size, e.Len()-start))
		}
		return true
	})
	if ok && t.backlogExceeded(conn) {
		t.connDead(conn) // stalled peer: cut instead of queueing unboundedly
		return false
	}
	if ok && kind == kData {
		conn.dataSent.Add(1)
	}
	return ok
}

// --- unit handling ---------------------------------------------------------

func (t *TCPTransport) handleUnit(conn *tcpConn, kind byte, body []byte) {
	switch kind {
	case kHello:
		d := wire.NewDec(body)
		addr := d.String()
		count := d.Uvarint()
		ids := make([]NodeID, 0, count)
		for i := uint64(0); i < count; i++ {
			ids = append(ids, NodeID(d.Varint()))
		}
		if d.Err() != nil || addr == "" {
			t.connDead(conn)
			return
		}
		// Validate the advertised hosting against our map: a peer claiming
		// nodes we map elsewhere is a topology misconfiguration.
		for _, id := range ids {
			if id >= 0 && int(id) < len(t.hostOf) && t.hostOf[id] != "" && t.hostOf[id] != addr {
				t.connDead(conn)
				return
			}
		}
		conn.mu.Lock()
		conn.addr = addr
		conn.mu.Unlock()
		t.connMu.Lock()
		if _, ok := t.conns[addr]; !ok && !t.closed {
			t.conns[addr] = conn // reuse the inbound socket for replies
		}
		t.connMu.Unlock()
	case kData:
		if conn.peerAddr() == "" {
			return // data before hello: protocol violation, drop
		}
		msg, err := decodeFrameShared(body)
		if err != nil {
			return // undecodable frame: drop (logged by byte counters' absence)
		}
		t.wireMu.Lock()
		t.ws.RecvFrames++
		t.ws.RecvBytes += int64(len(body))
		t.wireMu.Unlock()
		if !t.IsLocal(msg.To) {
			conn.dataHandled.Add(1) // misrouted: processed as far as we ever will
			return
		}
		msg.ID = t.nextMsg.Add(1)
		if !t.eng.beginSend() {
			return // transport closed underneath the reader
		}
		t.eng.inbox <- envelope{msg: msg, origin: conn}
	case kDropEcho:
		msg, err := decodeFrameShared(body)
		if err != nil {
			return
		}
		t.dropToSender(msg)
	case kStatusReq:
		d := wire.NewDec(body)
		nonce := d.Uvarint()
		if d.Err() != nil {
			return
		}
		var e wire.Enc
		e.Uvarint(nonce)
		e.Uvarint(uint64(conn.dataHandled.Load()))
		e.Uvarint(uint64(conn.dataSent.Load()))
		e.Bool(t.eng.idleNow())
		conn.sendRaw(kStatusResp, e.Bytes())
	case kStatusResp:
		d := wire.NewDec(body)
		nonce := d.Uvarint()
		st := statusInfo{handled: int64(d.Uvarint()), sent: int64(d.Uvarint()), idle: d.Bool()}
		if d.Err() != nil {
			return
		}
		// The peer's handled count doubles as the in-flight baseline of
		// PeerStats, refreshed by every status exchange. Only this
		// connection's reader writes it.
		if st.handled > conn.peerHandled.Load() {
			conn.peerHandled.Store(st.handled)
		}
		t.statusMu.Lock()
		ch := t.statusCh[nonce]
		delete(t.statusCh, nonce)
		t.statusMu.Unlock()
		if ch != nil {
			ch <- st
		}
	case kBarrier:
		d := wire.NewDec(body)
		tag := uint32(d.Uvarint())
		from := d.String()
		if d.Err() != nil {
			return
		}
		t.barrierMu.Lock()
		if t.barriers[tag] == nil {
			t.barriers[tag] = make(map[string]bool)
		}
		t.barriers[tag][from] = true
		t.barrierMu.Unlock()
	case kPing:
		// Echo the probe body back; the sender computes the RTT from it.
		nanos := append([]byte(nil), body...)
		conn.sendRaw(kPong, nanos)
	case kPong:
		d := wire.NewDec(body)
		sent := int64(d.Uvarint())
		if d.Err() != nil {
			return
		}
		if conn.pingSent.Load() == sent {
			conn.pingSent.Store(0)
			conn.lastRTT.Store(time.Now().UnixNano() - sent)
		}
	}
}

// dropToSender runs the drop callback for msg on the dispatcher when its
// sender is local; a remote sender's process runs its own.
func (t *TCPTransport) dropToSender(msg *Message) {
	if t.IsLocal(msg.From) {
		t.eng.submitDrop(msg)
	}
}

// --- delivery --------------------------------------------------------------

// deliver implements the transport's delivery policy on the dispatch
// engine: run the local handler, or the drop callback of a local sender,
// or bounce the frame back over the socket when the sender lives in
// another process. Either way a frame from a peer counts as handled on the
// connection it arrived on.
func (t *TCPTransport) deliver(env envelope) {
	msg := env.msg
	if h := t.eng.handlerOf(msg.To); h != nil && t.deliverable(msg.From, msg.To) {
		h(msg)
	} else if t.IsLocal(msg.From) {
		// Destination offline, handler-less or cut off: failure detection
		// (§4.3).
		t.eng.runDrop(msg)
	} else if env.origin != nil {
		// Bounce the frame to the sender's process; its transport runs the
		// drop callback there.
		t.enqueueFrame(env.origin.peerAddr(), kDropEcho, msg, frameSize(msg))
	}
	if env.origin != nil {
		env.origin.dataHandled.Add(1)
	}
}

// --- Transport interface ---------------------------------------------------

// SetHandler installs the message handler of a node (consulted only for
// local nodes).
func (t *TCPTransport) SetHandler(id NodeID, h Handler) { t.eng.setHandler(id, h) }

// SetDrop installs the drop callback (§4.3 failure detection). It runs on
// the dispatcher of the message's sender's process — also when the drop
// happened in another process and was echoed back.
func (t *TCPTransport) SetDrop(fn func(*Message)) { t.eng.setDrop(fn) }

// chargeHops accounts n payload-less transmissions (walks and floods) to
// the ledger; WireStats books them as frameless.
func (t *TCPTransport) chargeHops(typ string, n int64) {
	t.ledger.chargeHops(typ, n)
	t.chargeFrameless(n, n*BaseMessageBytes)
}

// chargeFrameless records traffic charged without an encoded frame.
func (t *TCPTransport) chargeFrameless(msgs, bytes int64) {
	t.wireMu.Lock()
	t.ws.ChargedMsgs += msgs
	t.ws.ChargedBytes += bytes
	t.wireMu.Unlock()
}

// Send serializes the message into a wire frame and delivers it: frames
// for local nodes go through the dispatch engine (decoded back through the
// codec, so local and remote delivery share one serialization pipeline),
// frames for remote nodes ride the peer connection's writer goroutine. A
// payload the codec registry cannot frame panics (see frameSize). Messages
// to unreachable processes (dead connections, failed dials) are counted
// and dropped — the §4.3 failure-detection path.
func (t *TCPTransport) Send(msg *Message) {
	if msg.To < 0 || int(msg.To) >= t.graph.Len() {
		panic(fmt.Sprintf("p2p: send to out-of-range node %d", msg.To))
	}
	if t.eng.isClosed() {
		panic("p2p: send on closed TCPTransport")
	}
	id := t.nextMsg.Add(1)
	if msg.ID == 0 {
		msg.ID = id
	}
	size := frameSize(msg)

	if t.IsLocal(msg.To) {
		// Round-trip through the codec out of a pooled buffer: local
		// delivery observes exactly what a remote process would have
		// decoded.
		e := wire.GetEnc()
		appendFrame(e, msg)
		if m2, err := decodeFrameShared(e.Bytes()); err == nil {
			m2.ID = msg.ID
			msg = m2
		}
		e.Release()
		t.wireMu.Lock()
		t.ws.LocalFrames++
		t.ws.LocalBytes += size
		t.wireMu.Unlock()
		if !t.eng.beginSend() {
			panic("p2p: send on closed TCPTransport")
		}
		t.charge(msg.Type, 1, size)
		go func() { t.eng.inbox <- envelope{msg: msg} }()
		return
	}

	addr := t.hostOf[msg.To]
	t.charge(msg.Type, 1, size)
	if t.gate.severed(msg.From, msg.To) {
		// Partitioned link: the frame is charged as sent but never reaches
		// the socket — the sender observes the same §4.3 drop evidence a
		// dead connection produces.
		t.chargeFrameless(1, size)
		t.dropToSender(msg)
		return
	}
	if addr == "" || !t.enqueueFrame(addr, kData, msg, size) {
		// Unmapped node or dead connection: the message was charged as
		// sent (the bytes hit the wire as far as accounting is concerned)
		// but no frame bucket took it — book it frameless so the
		// WireStats identity survives the §4.3 failure path.
		t.chargeFrameless(1, size)
		t.dropToSender(msg)
		return
	}
	t.wireMu.Lock()
	t.ws.SentFrames++
	t.ws.SentBytes += size
	t.wireMu.Unlock()
}

// SendNew builds and sends a message.
func (t *TCPTransport) SendNew(typ string, from, to NodeID, ttl int, payload any) {
	t.Send(&Message{Type: typ, From: from, To: to, TTL: ttl, Payload: payload})
}

// Exec runs fn serialized with every local handler (see
// ChannelTransport.Exec). It quiesces this process only — align remote
// drivers with Barrier.
func (t *TCPTransport) Exec(fn func()) { t.eng.exec(fn) }

// After schedules fn on the dispatcher, delaySeconds of virtual time from
// now, scaled by tcpTimerScale (see ChannelTransport.After for the
// serialization and Settle/Close contract).
func (t *TCPTransport) After(owner NodeID, delaySeconds float64, fn func()) {
	t.eng.after(time.Duration(delaySeconds*float64(tcpTimerScale)), fn)
}

// Settle blocks until the whole deployment is quiescent as far as this
// process can observe: the local dispatch lane is drained and, over every
// live connection to a peer process, the peer reports twice in a row with
// unchanged counters that it is idle, has handled every data frame we sent
// on that connection, and has sent nothing on it we have not handled. The
// counters belong to the connection, so frames lost with a cut socket drop
// out of the comparison with it; a peer with no live connection is treated
// as departed (its frames were dropped). So is a connection whose peer
// missed settleMisses status probes in a row (it accepts frames but hangs):
// Settle returns within settleMisses+1 probe timeouts of such a peer's last
// answer, and the peer rejoins the comparison once it answers again.
// Calling Settle from a handler panics.
func (t *TCPTransport) Settle() {
	if t.eng.onDispatcher() {
		panic("p2p: Settle called from a handler/timer on the dispatcher (would deadlock); drivers only")
	}
	stable := 0
	prev := make(map[*tcpConn][2]int64)
	missed := make(map[*tcpConn]int) // consecutive unanswered probes per connection
	for stable < 2 {
		t.eng.waitIdle()
		quiet := true
		cur := make(map[*tcpConn][2]int64)
		conns := t.peerConns()
		sts := make([]statusInfo, len(conns))
		oks := make([]bool, len(conns))
		var wg sync.WaitGroup
		for i, c := range conns { // one round trip per round, not one per connection
			wg.Add(1)
			go func() {
				defer wg.Done()
				sts[i], oks[i] = t.peerStatus(c, 2*time.Second)
			}()
		}
		wg.Wait()
		for i, c := range conns {
			st, ok := sts[i], oks[i]
			if !ok {
				// The connection broke, or the peer did not answer in time
				// (e.g. buried in a long merge): not quiescent yet — a
				// broken connection is gone from the next round, and a
				// peer that keeps missing probes counts as gone.
				if missed[c]++; missed[c] < settleMisses {
					quiet = false
				}
				continue
			}
			delete(missed, c)
			if !st.idle || st.handled != c.dataSent.Load() || st.sent != c.dataHandled.Load() {
				quiet = false
			}
			cur[c] = [2]int64{st.handled, st.sent}
		}
		if !t.eng.idleNow() {
			quiet = false
		}
		if quiet && maps.Equal(cur, prev) {
			stable++
		} else {
			stable = 0
		}
		prev = cur
		if stable < 2 {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// settleMisses is the number of consecutive status probes a peer may
// leave unanswered before Settle counts its connection as gone.
const settleMisses = 3

// peerConns returns the live connections to processes of the host map
// whose hello has arrived — registered or not: after simultaneous dials a
// peer may send on a socket this process only reads.
func (t *TCPTransport) peerConns() []*tcpConn {
	peers := t.peerAddrs()
	t.connMu.Lock()
	defer t.connMu.Unlock()
	var out []*tcpConn
	for _, c := range t.allConns {
		if !c.dead.Load() && slices.Contains(peers, c.peerAddr()) {
			out = append(out, c)
		}
	}
	return out
}

// peerStatus asks the peer at the far end of c for that connection's
// settle counters.
func (t *TCPTransport) peerStatus(c *tcpConn, timeout time.Duration) (statusInfo, bool) {
	ch := make(chan statusInfo, 1)
	t.statusMu.Lock()
	t.nonce++
	nonce := t.nonce
	t.statusCh[nonce] = ch
	t.statusMu.Unlock()
	var e wire.Enc
	e.Uvarint(nonce)
	if !c.sendRaw(kStatusReq, e.Bytes()) {
		t.statusMu.Lock()
		delete(t.statusCh, nonce)
		t.statusMu.Unlock()
		return statusInfo{}, false
	}
	select {
	case st := <-ch:
		return st, true
	case <-time.After(timeout):
		t.statusMu.Lock()
		delete(t.statusCh, nonce)
		t.statusMu.Unlock()
		return statusInfo{}, false
	}
}

// Barrier aligns driver phases across processes: it announces the tag to
// every peer process and blocks until every peer's announcement for the
// same tag has arrived (announcements are sticky, so arrival order does
// not matter). Use distinct tags per phase.
func (t *TCPTransport) Barrier(tag uint32, timeout time.Duration) error {
	peers := t.peerAddrs()
	var e wire.Enc
	e.Uvarint(uint64(tag))
	e.String(t.laddr)
	for _, addr := range peers {
		if !t.enqueue(addr, kBarrier, e.Bytes()) {
			return fmt.Errorf("p2p: barrier %d: peer %s unreachable", tag, addr)
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		t.barrierMu.Lock()
		missing := 0
		for _, addr := range peers {
			if !t.barriers[tag][addr] {
				missing++
			}
		}
		t.barrierMu.Unlock()
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("p2p: barrier %d: %d peers missing after %v", tag, missing, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close settles the local dispatch lane, shuts the listener and every
// connection down and stops the dispatcher. Sending afterwards panics.
func (t *TCPTransport) Close() {
	t.connMu.Lock()
	if t.closed {
		t.connMu.Unlock()
		return
	}
	t.closed = true
	close(t.closeCh)
	conns := append([]*tcpConn(nil), t.allConns...)
	t.connMu.Unlock()
	t.ln.Close()
	t.eng.closeEngine()
	for _, c := range conns {
		c.shutdown()
	}
	t.wg.Wait()
}
