package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// TCPNet is a real TCP transport implementing FaultyNetwork. Each
// registered node listens on its address from the address book; outgoing
// connections are dialed lazily through a process-wide mux (one shared
// connection per destination address, singleflight dial — see mux.go)
// and kept open. It backs the cluster-deployment analogue of the paper's
// Grid'5000 experiment (48 machines × 9 instances, §VII-A).
//
// TCPNet carries the same scripted fault surface as MemNet — loss,
// partitions, down nodes, queued upload caps — through the same
// FaultPlane, applied on the wire path: the full admission pipeline runs at
// send time (a dropped message never reaches the socket; an over-budget
// one waits in the plane's link queue instead), the backlog the plane
// released at the round top is written at the round's first Send or
// drain, ahead of the round's fresh traffic, and a stateless
// down/partition recheck runs at receive time for messages that were in
// flight when the condition changed. Every plane decision is a function of
// the message, not of the wall-clock order in which TCPNet admits it, so a
// scripted TCP run — lossy or not — reports what the MemNet run of the
// same script reports. What stays outside that contract is timing:
// wall-clock fields, and the per-sender send order a capped queue sees
// when deliveries inside a phase arrive in a different order. Write
// batching does not move the admission point: Admit still runs inside
// Send — only the syscall is deferred to the phase flush.
//
// Traffic accounting is MemNet's, kept by the same fault plane: every
// message is charged Message.WireSize() (HeaderBytes framing, not the raw
// 13-byte TCP frame header), so per-node bandwidth numbers are comparable
// across transports. The wire-level truth — syscalls, frames, bytes — is
// tracked separately in IOStats.
//
// # Batched I/O
//
// Outbound frames coalesce in per-connection writers (batch.go) and leave
// in one vectored write per destination per phase: DeliverAll and
// DeliverUntil flush at the top of every pass. A writer holds the payload
// slices Send was given until then, copying none. Multiple pending frames
// travel as a single jumbo frame the receiver unpacks transparently. The receive side slices payloads
// zero-copy out of pooled ref-counted arenas (wire.Arena, frame.go): one
// read syscall drains everything the kernel buffered, and an arena is
// recycled once the delivery wave has handled the last payload read into
// it.
//
// # Dynamic roster
//
// SetDynamic enables mid-run membership: Register for an id missing from
// the address book listens on an ephemeral port and publishes the
// resolved address to the shared book, and Unregister closes a node's
// listener and connections so its id really leaves the wire. This is what
// scenario churn maps onto when a session runs over sockets.
//
// # Stepped delivery
//
// Handlers never run on the socket reader goroutines: a decoded frame is
// queued in the net's inbox, and the driving goroutine drains the inbox
// and runs the handlers itself, so unsynchronised protocol nodes are never
// touched concurrently — the same single-threaded-per-node guarantee
// MemNet's merge gives. There are two ways to drain: DeliverAll follows
// the wire until it is quiescent (the round engine's barrier), and
// DeliverUntil keeps draining until a wall-clock deadline (a paced
// deployment's phase).
type TCPNet struct {
	mu      sync.Mutex
	book    map[model.NodeID]string
	dynIDs  map[model.NodeID]bool // book entries published by dynamic Registers
	nodes   map[model.NodeID]*tcpEndpoint
	dynHost string // "" = static roster only
	wg      sync.WaitGroup
	done    chan struct{}

	faults *FaultPlane
	mux    *connMux
	io     ioCounters

	// Delivery state: inbox holds arrived-but-undelivered messages (spare
	// is the drained array of the previous wave, swapped back in), and
	// arrived carries one token when the inbox turns non-empty; inflight
	// counts frames enqueued for the wire and not yet in the receiver's
	// inbox. delivered counts handler invocations.
	quiesce   time.Duration // max DeliverAll wait; 0 = default
	inboxMu   sync.Mutex
	inbox     []queuedDelivery
	spare     []queuedDelivery
	arrived   chan struct{}
	inflight  atomic.Int64
	delivered atomic.Uint64
}

var _ Network = (*TCPNet)(nil)

// NewTCPNet creates a TCP network over a static address book
// (NodeID → "host:port").
func NewTCPNet(book map[model.NodeID]string) *TCPNet {
	cp := make(map[model.NodeID]string, len(book))
	for id, addr := range book {
		cp[id] = addr
	}
	t := &TCPNet{
		book:    cp,
		dynIDs:  make(map[model.NodeID]bool),
		nodes:   make(map[model.NodeID]*tcpEndpoint),
		faults:  NewFaultPlane(),
		done:    make(chan struct{}),
		arrived: make(chan struct{}, 1),
	}
	t.mux = newConnMux(t)
	return t
}

// Faults returns the network's fault plane.
func (t *TCPNet) Faults() *FaultPlane { return t.faults }

// Name identifies the transport for run metadata.
func (t *TCPNet) Name() string { return "tcp" }

// IOStats returns a snapshot of the wire-level operation counters:
// frames, syscalls, raw bytes and jumbo aggregates.
func (t *TCPNet) IOStats() IOStats { return t.io.snapshot() }

// BeginRound runs the link model's round-boundary drain: the fault plane
// expires over-age queued messages, resets the per-round upload budgets
// and releases the backlog the fresh budgets allow, which the round's
// first Send or drain writes (sendReleased).
func (t *TCPNet) BeginRound() { t.faults.BeginRound() }

// sendReleased enqueues the backlog the plane released at the round top,
// ahead of whatever the caller sends next; it is a no-op once the round's
// burst has been taken. A passed message whose sender has deregistered
// meanwhile is the one case the wire cannot mirror MemNet's
// surviving-endpoint delivery: it is treated as a write failure — budget
// and charge refunded.
func (t *TCPNet) sendReleased() {
	for _, a := range t.faults.takeReleased() {
		t.mu.Lock()
		_, up := t.nodes[a.msg.From]
		t.mu.Unlock()
		if !up {
			t.faults.refund(a.msg.From, a.copies, uint64(a.msg.WireSize()))
			continue
		}
		_ = t.sendFrame(a.msg, a.copies)
	}
}

// SetDynamic enables the dynamic roster: Register for an id with no book
// entry listens on host:0 (an ephemeral port) and records the resolved
// address, so later dials to that id work. host is typically "127.0.0.1"
// for single-process loopback deployments.
func (t *TCPNet) SetDynamic(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dynHost = host
}

// SetStepped sets DeliverAll's quiescence budget: how long one call may
// wait for in-flight frames (0 picks a default). It changes nothing else —
// delivery is always stepped.
func (t *TCPNet) SetStepped(maxWait time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.quiesce = maxWait
}

// Register implements Network: it starts listening on the node's book
// address (or an ephemeral one under SetDynamic) and serves inbound
// frames to the handler.
func (t *TCPNet) Register(id model.NodeID, h Handler) (Endpoint, error) {
	if id == model.NoNode {
		return nil, errors.New("transport: cannot register NoNode")
	}
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	t.mu.Lock()
	addr, static := t.book[id]
	dynamic := !static && t.dynHost != ""
	if dynamic {
		addr = net.JoinHostPort(t.dynHost, "0")
	}
	t.mu.Unlock()
	if !static && !dynamic {
		return nil, fmt.Errorf("transport: node %v not in address book", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{
		net:      t,
		id:       id,
		handler:  h,
		ln:       ln,
		accepted: make(map[net.Conn]struct{}),
	}
	t.mu.Lock()
	if _, dup := t.nodes[id]; dup {
		t.mu.Unlock()
		_ = ln.Close()
		return nil, fmt.Errorf("transport: node %v already registered", id)
	}
	t.nodes[id] = ep
	if dynamic {
		// Publish the resolved ephemeral address so peers sharing this
		// TCPNet can dial the newcomer. Static entries are left alone
		// (the configured name may resolve differently than ln.Addr).
		t.book[id] = ln.Addr().String()
		t.dynIDs[id] = true
	}
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ep.acceptLoop()
	}()
	return ep, nil
}

// Addressable implements FaultyNetwork: an id on the address book, or any
// id under SetDynamic, which publishes an address at Register.
func (t *TCPNet) Addressable(id model.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, static := t.book[id]
	return static || (id != model.NoNode && t.dynHost != "")
}

// Unregister detaches a node mid-run: its listener and inbound
// connections close, and the mux drops the shared outbound connection to
// it, so the id really leaves the wire (peers' next write to a stale
// handle fails and the re-dial is refused by the dead listener). A
// dynamically published address is retracted, so later sends fail with
// "unknown destination" before touching the fault plane (MemNet's
// accounting for departed destinations) and a re-registered id gets a
// fresh ephemeral port; static roster entries stay (the deployment's
// address book is configuration, not state). Traffic counters survive for
// post-mortem accounting. It reports whether the node was registered.
func (t *TCPNet) Unregister(id model.NodeID) bool {
	t.mu.Lock()
	ep, ok := t.nodes[id]
	addr := t.book[id]
	if ok {
		delete(t.nodes, id)
		if t.dynIDs[id] {
			delete(t.book, id)
			delete(t.dynIDs, id)
		}
	}
	t.mu.Unlock()
	if !ok {
		return false
	}
	if addr != "" {
		t.mux.dropAddr(addr)
	}
	ep.close()
	return true
}

// handlerOf resolves the current handler of a destination (nil when the
// node is not registered).
func (t *TCPNet) handlerOf(id model.NodeID) Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep, ok := t.nodes[id]; ok {
		return ep.handler
	}
	return nil
}

// TrafficOf returns the cumulative traffic snapshot of a node.
func (t *TCPNet) TrafficOf(id model.NodeID) Traffic { return t.faults.TrafficOf(id) }

// TotalTraffic sums all per-node counters.
func (t *TCPNet) TotalTraffic() Traffic { return t.faults.TotalTraffic() }

// sendFrame enqueues an admitted frame, whose copies admission charged,
// onto the shared connection to its destination, which keeps the payload
// until its flush. On dial or write failure every copy's charge and round
// budget are refunded (the bytes never left the NIC).
func (t *TCPNet) sendFrame(msg Message, copies int) error {
	t.mu.Lock()
	addr, ok := t.book[msg.To]
	t.mu.Unlock()
	if !ok {
		t.faults.refund(msg.From, copies, uint64(msg.WireSize()))
		return fmt.Errorf("transport: unknown destination %v", msg.To)
	}
	w, err := t.mux.get(addr)
	if err != nil {
		t.faults.refund(msg.From, copies, uint64(msg.WireSize()))
		return err
	}
	t.inflight.Add(1)
	if err := w.enqueue(msg, copies); err != nil {
		// enqueue already unwound the charge and inflight slot.
		t.mux.drop(w)
		return fmt.Errorf("transport: write to %v: %w", msg.To, err)
	}
	return nil
}

// FlushAll pushes every connection's pending frames onto the wire — one
// vectored write per destination with frames pending; idle connections
// are not touched. DeliverAll and DeliverUntil call it.
func (t *TCPNet) FlushAll() { t.mux.flushAll() }

// defaultQuiesce bounds one DeliverAll wait when SetStepped was not given
// an explicit budget: generous against handler cascades, tight enough
// that a lost peer cannot stall a round for long.
const defaultQuiesce = 2 * time.Second

// quiesceIdle is how long DeliverAll tolerates zero progress (no drains,
// no inflight movement) before declaring the wire quiescent even though
// the inflight counter is nonzero. A frame written to a connection that
// died before reading it (a departed peer) is never decremented; without
// this idle cut-off one such frame would burn the full budget on every
// subsequent DeliverAll. Loopback propagation is microseconds, so the
// window is sized for scheduler noise, not the wire: it must outlast a
// descheduled reader goroutine on a loaded (race-instrumented, shared-CI)
// box, where 25 ms stalls are real — truncating a genuine in-flight frame
// would leak its delivery into the next phase and break the stepped
// barrier contract.
const quiesceIdle = 150 * time.Millisecond

// DeliverAll drains the wire until it quiesces: it flushes the batched
// writers and runs the handlers of queued messages on the calling
// goroutine (handlers may send more; the cascade is flushed and followed
// until nothing is in flight), returning how many messages were handed to
// handlers.
//
// Quiescence is inflight == 0 (exact, the fast path) or no observable
// progress for quiesceIdle (the leaked-frame fallback); the SetStepped
// budget remains the hard deadline. The inflight counter is only
// meaningful when sender and receiver share this TCPNet (one process) — a
// multi-process deployment paces its phases with DeliverUntil instead.
func (t *TCPNet) DeliverAll() int {
	t.mu.Lock()
	budget := t.quiesce
	t.mu.Unlock()
	if budget <= 0 {
		budget = defaultQuiesce
	}
	deadline := time.Now().Add(budget)
	lastInflight, lastProgress := t.inflight.Load(), time.Now()
	return t.pump(func(drained bool) bool {
		now := time.Now()
		if drained {
			lastProgress = now
		}
		inflight := t.inflight.Load()
		if inflight == 0 {
			// Enqueue happens-before the inflight decrement, so at zero
			// everything already sent is in the inbox: one more pass
			// drains it, and whatever its handlers send re-raises inflight.
			return t.inboxEmpty()
		}
		if inflight != lastInflight {
			lastInflight, lastProgress = inflight, now
		}
		if now.Sub(lastProgress) > quiesceIdle || now.After(deadline) {
			return true
		}
		time.Sleep(200 * time.Microsecond)
		return false
	})
}

// DeliverUntil drains the wire until a wall-clock deadline: it flushes the
// batched writers, runs the handlers of queued messages on the calling
// goroutine, then waits for the next arrival or the deadline, and goes
// round again. It returns at the deadline (or once the net is closed) with
// how many messages were handed to handlers. A paced deployment calls it
// where it would otherwise sleep between phases.
func (t *TCPNet) DeliverUntil(deadline time.Time) int {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	return t.pump(func(bool) bool {
		select {
		case <-t.arrived:
			return false
		case <-timer.C:
		case <-t.done:
		}
		return true
	})
}

// pump is the drain loop behind DeliverAll and DeliverUntil. Each pass
// pushes anything batched (a released backlog, a phase's sends, or a
// cascade's) onto the wire and drains the inbox; when a pass finds the
// inbox empty, idle decides whether to stop — it may block until something
// can have changed — and is told whether any pass since its last call
// drained messages.
func (t *TCPNet) pump(idle func(drained bool) (stop bool)) int {
	start := t.delivered.Load()
	drained := false
	for {
		t.sendReleased()
		t.FlushAll()
		if t.drainInbox() {
			drained = true
			continue
		}
		if idle(drained) {
			return int(t.delivered.Load() - start)
		}
		drained = false
	}
}

// queuedDelivery is one inbox entry: a message whose payload aliases a
// receive arena, and the reference that keeps the arena out of the pool
// until the message has been handled.
type queuedDelivery struct {
	msg   Message
	arena *wire.Arena
}

// drainInbox hands the currently queued messages to their handlers on the
// calling goroutine, giving each arena reference back as its handler
// returns, and reports whether it drained any. Handler resolution happens
// per message, so a destination unregistered while queued is silently
// discarded (its receive was already charged — same contract as MemNet).
// pump is its only caller, one goroutine at a time, which is what lets the
// two inbox arrays swap without allocating.
func (t *TCPNet) drainInbox() bool {
	t.inboxMu.Lock()
	wave := t.inbox
	t.inbox = t.spare[:0]
	t.inboxMu.Unlock()
	for _, q := range wave {
		if h := t.handlerOf(q.msg.To); h != nil {
			h(q.msg)
			t.delivered.Add(1)
		}
		q.arena.Release()
	}
	clear(wave)
	t.spare = wave
	return len(wave) > 0
}

// inboxEmpty reports whether no message is waiting for a drain.
func (t *TCPNet) inboxEmpty() bool {
	t.inboxMu.Lock()
	defer t.inboxMu.Unlock()
	return len(t.inbox) == 0
}

// Close shuts down all listeners and connections and waits for goroutines.
func (t *TCPNet) Close() error {
	t.mu.Lock()
	select {
	case <-t.done:
	default:
		close(t.done)
	}
	eps := make([]*tcpEndpoint, 0, len(t.nodes))
	for _, ep := range t.nodes {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	t.mux.closeAll()
	for _, ep := range eps {
		ep.close()
	}
	t.wg.Wait()
	return nil
}

type tcpEndpoint struct {
	net     *TCPNet
	id      model.NodeID
	handler Handler
	ln      net.Listener

	mu       sync.Mutex
	accepted map[net.Conn]struct{} // inbound, closed on teardown
}

func (e *tcpEndpoint) NodeID() model.NodeID { return e.id }

// Send implements Endpoint. The fault plane admits, queues or drops the
// message, and charges it, before it touches a socket: a message beyond
// the upload budget waits in the link queue uncharged (it is charged when
// a later round's budget releases it onto the wire), a dropped one is
// charged to the sender only, and every retransmission of a lost attempt
// is charged to the sender too — exactly MemNet's accounting, applied at
// the NIC instead of the merge point. Admission runs here, regardless of
// when the batched frame's syscall happens, behind the round's released
// backlog.
func (e *tcpEndpoint) Send(to model.NodeID, kind uint8, payload []byte) error {
	e.net.mu.Lock()
	_, known := e.net.book[to]
	e.net.mu.Unlock()
	if !known {
		return fmt.Errorf("transport: unknown destination %v", to)
	}

	e.net.sendReleased()
	msg := Message{From: e.id, To: to, Kind: kind, Payload: payload}
	outcome, copies := e.net.faults.Admit(msg)
	if outcome != OutcomePass {
		return nil
	}
	return e.net.sendFrame(msg, copies)
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		e.accepted[conn] = struct{}{}
		e.mu.Unlock()
		e.net.wg.Add(1)
		go func() {
			defer e.net.wg.Done()
			e.readLoop(conn)
			e.mu.Lock()
			delete(e.accepted, conn)
			e.mu.Unlock()
		}()
	}
}

// countingReader taps read syscalls for IOStats.
type countingReader struct {
	c  net.Conn
	io *ioCounters
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	if n > 0 {
		r.io.reads.Add(1)
		r.io.bytesIn.Add(uint64(n))
	}
	return n, err
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	fr := newFrameReader(countingReader{c: conn, io: &e.net.io})
	defer fr.close()
	for {
		h, payload, err := fr.next()
		if err != nil {
			return
		}
		if h.to != e.id {
			return // protocol violation: drop the connection
		}
		select {
		case <-e.net.done:
			return
		default:
		}
		if h.kind == kindJumbo {
			err := decodeJumbo(payload, e.id, func(sh frameHeader, body []byte) error {
				e.net.io.framesIn.Add(1)
				e.deliver(Message{From: sh.from, To: sh.to, Kind: sh.kind, Payload: body}, fr.arena)
				return nil
			})
			if err != nil {
				return // malformed jumbo: drop the connection
			}
			continue
		}
		e.net.io.framesIn.Add(1)
		e.deliver(Message{From: h.from, To: h.to, Kind: h.kind, Payload: payload}, fr.arena)
	}
}

// deliver runs one decoded frame through the receive-side pipeline —
// the plane's Arrive, then the inbox. The payload aliases arena, which the
// queued message retains until drainInbox has handled it.
func (e *tcpEndpoint) deliver(msg Message, arena *wire.Arena) {
	// A frame that was in flight when its link partitioned or an end went
	// down is lost here (counted once — admission passed it); any other is
	// charged to its receiver.
	if !e.net.faults.Arrive(msg) {
		e.net.inflight.Add(-1)
		return
	}
	arena.Retain()
	e.net.inboxMu.Lock()
	first := len(e.net.inbox) == 0
	e.net.inbox = append(e.net.inbox, queuedDelivery{msg: msg, arena: arena})
	e.net.inboxMu.Unlock()
	if first {
		// Only the empty → non-empty edge wakes a DeliverUntil, so a burst
		// costs one token, and DeliverAll, which never waits on it, pays
		// nothing per frame.
		select {
		case e.net.arrived <- struct{}{}:
		default:
		}
	}
	e.net.inflight.Add(-1)
}

// close tears the endpoint off the accept side of the wire: the listener
// and the inbound connections peers dialed to it (their next write fails,
// forcing a re-dial that the dead listener rejects) — so a deregistered
// id stops receiving, not just accepting. Outbound connections live in
// the shared mux and are dropped by Unregister/Close.
func (e *tcpEndpoint) close() {
	_ = e.ln.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	for c := range e.accepted {
		_ = c.Close()
		delete(e.accepted, c)
	}
}
