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

// TCPNet is a real TCP transport implementing FaultyNetwork. It listens
// once per distinct local address: every id the address book (or
// SetDynamic) places at one address shares that listener, its accept loop
// and one read loop per inbound connection, and a frame names the id it is
// for. Outgoing connections are dialed lazily through a process-wide mux
// (one shared connection per destination address, singleflight dial — see
// mux.go) and kept open, so an in-process session on the dynamic roster
// runs over a single loopback connection, and a deployment over one per
// ordered pair of processes. It backs the cluster-deployment analogue of the
// paper's Grid'5000 experiment (48 machines × 9 instances, §VII-A).
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
// when deliveries inside a phase arrive in an order other than MemNet's
// canonical one. Where every id shares one address, as in an in-process
// session's dynamic roster, every frame crosses one connection, so that
// order is the order of the sends and repeats from run to run; over
// several connections it follows the wall clock. Write batching does not
// move the admission point: Admit still runs inside Send — only the
// syscall is deferred to the phase flush.
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
// in one write per destination address per phase: DeliverAll and
// DeliverUntil flush at the top of every pass. Send copies each frame into
// its writer's batch buffer, so it keeps no payload it was given
// (KeepsPayload is false) and a sender may lend it a pooled buffer; a
// message an upload cap defers is cloned into the link queue instead.
// Multiple pending frames
// travel as a single jumbo frame, whose sub-frames may be for different
// ids at that address; the receiver unpacks it one sub-frame at a time.
// The receive side slices payloads zero-copy out of pooled ref-counted
// arenas (wire.Arena, frame.go): one read syscall drains everything the
// kernel buffered, and an arena is recycled once the delivery wave has
// handled the last payload read into it.
//
// # Dynamic roster
//
// SetDynamic enables mid-run membership: Register for an id missing from
// the address book joins the net's one ephemeral listener (opened at the
// first such Register) and publishes its address to the shared book, and
// Unregister retracts the id from the book, so it leaves the roster
// without a listener or connection being torn down. This is what scenario
// churn maps onto when a session runs over sockets. A listener closes
// only when the last id it hosts leaves.
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

	// regMu serialises Register, Unregister and Close, which open and
	// close the listeners; listeners maps a book address, or "" for the
	// dynamic listener, to the listener serving it.
	regMu     sync.Mutex
	listeners map[string]*tcpListener

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
		book:      cp,
		dynIDs:    make(map[model.NodeID]bool),
		nodes:     make(map[model.NodeID]*tcpEndpoint),
		listeners: make(map[string]*tcpListener),
		faults:    NewFaultPlane(),
		done:      make(chan struct{}),
		arrived:   make(chan struct{}, 1),
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
// entry joins a listener on host:0 (an ephemeral port, opened once) and
// records its resolved address, so later dials to that id work. host is
// typically "127.0.0.1" for single-process loopback deployments.
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

// Register implements Network: it adds the node to the listener at its
// book address (or, under SetDynamic, to the net's ephemeral listener),
// opening that listener if no id registered there yet, and serves inbound
// frames addressed to the node to the handler.
func (t *TCPNet) Register(id model.NodeID, h Handler) (Endpoint, error) {
	if id == model.NoNode {
		return nil, errors.New("transport: cannot register NoNode")
	}
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	t.regMu.Lock()
	defer t.regMu.Unlock()
	t.mu.Lock()
	_, dup := t.nodes[id]
	addr, static := t.book[id]
	dynamic := !static && t.dynHost != ""
	dynHost := t.dynHost
	t.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("transport: node %v already registered", id)
	}
	if !static && !dynamic {
		return nil, fmt.Errorf("transport: node %v not in address book", id)
	}
	key := addr
	if dynamic {
		key = ""
	}
	lis := t.listeners[key]
	if lis == nil {
		var err error
		if lis, err = t.listen(key, dynHost); err != nil {
			return nil, err
		}
	}
	lis.live++
	lis.host(id)
	ep := &tcpEndpoint{net: t, id: id, handler: h, lis: lis}
	t.mu.Lock()
	t.nodes[id] = ep
	if dynamic {
		// Publish the listener's resolved address so peers sharing this
		// TCPNet can dial the newcomer. Static entries are left alone
		// (the configured name may resolve differently than ln.Addr).
		t.book[id] = lis.addr
		t.dynIDs[id] = true
	}
	t.mu.Unlock()
	return ep, nil
}

// listen opens the listener for key — a book address, or "" for the
// dynamic listener on dynHost:0 — and starts its accept loop. A static
// listener hosts from the start every id the book places at its address,
// so a peer that sends to one of them before it registered is not taken
// for a protocol violation. The caller holds regMu.
func (t *TCPNet) listen(key, dynHost string) (*tcpListener, error) {
	at := key
	if key == "" {
		at = net.JoinHostPort(dynHost, "0")
	}
	ln, err := net.Listen("tcp", at)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", at, err)
	}
	lis := &tcpListener{
		net:      t,
		key:      key,
		addr:     key,
		ln:       ln,
		hosted:   make(map[model.NodeID]struct{}),
		accepted: make(map[net.Conn]struct{}),
	}
	if key == "" {
		lis.addr = ln.Addr().String()
	} else {
		t.mu.Lock()
		for id, a := range t.book {
			if a == key {
				lis.hosted[id] = struct{}{}
			}
		}
		t.mu.Unlock()
	}
	t.listeners[key] = lis
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		lis.acceptLoop()
	}()
	return lis, nil
}

// Addressable implements FaultyNetwork: an id on the address book, or any
// id under SetDynamic, which publishes an address at Register.
func (t *TCPNet) Addressable(id model.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, static := t.book[id]
	return static || (id != model.NoNode && t.dynHost != "")
}

// Unregister detaches a node mid-run. Its handler is gone at once: a frame
// to it that is queued, in flight or in the inbox is charged on arrival
// and discarded at drain (MemNet's contract for a destination that left
// while its message was queued), and the connection that carried it stays
// up for the other ids at the address. A dynamically published address is
// retracted, so later sends fail with "unknown destination" before
// touching the fault plane (MemNet's accounting for departed
// destinations); static roster entries stay (the deployment's address
// book is configuration, not state). When the node was the last one its
// listener hosted, the listener and its inbound connections close and the
// mux drops the shared outbound connection to the address, so the address
// really leaves the wire (peers' next write to a stale handle fails and
// the re-dial is refused). Traffic counters survive for post-mortem
// accounting. It reports whether the node was registered.
func (t *TCPNet) Unregister(id model.NodeID) bool {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	t.mu.Lock()
	ep, ok := t.nodes[id]
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
	lis := ep.lis
	if lis.live--; lis.live == 0 {
		delete(t.listeners, lis.key)
		t.mux.dropAddr(lis.addr)
		lis.close()
	}
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
// onto the shared connection to its destination, whose writer copies it
// into the batch buffer for the next flush. On dial or write failure
// every copy's charge and round budget are refunded (the bytes never left
// the NIC).
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
// write per destination address with frames pending; idle
// connections are not touched. DeliverAll and DeliverUntil call it.
func (t *TCPNet) FlushAll() { t.mux.flushAll() }

// defaultQuiesce bounds one DeliverAll wait when SetStepped was not given
// an explicit budget: generous against handler cascades, tight enough
// that a lost peer cannot stall a round for long.
const defaultQuiesce = 2 * time.Second

// quiesceIdle is how long DeliverAll tolerates zero progress (no drains,
// no inflight movement) before declaring the wire quiescent even though
// the inflight counter is nonzero. A frame written to a connection that
// died before reading it is never decremented — which happens when the
// last id of a listener leaves with frames to it in flight; an id leaving
// a listener others still use leaves none, since its frames are read and
// discarded at drain. Without this idle cut-off one such frame would burn
// the full budget on every subsequent DeliverAll. Loopback propagation is
// microseconds, so the window is sized for scheduler noise, not the wire:
// it must outlast a descheduled reader goroutine on a loaded
// (race-instrumented, shared-CI) box, where 25 ms stalls are real —
// truncating a genuine in-flight frame would leak its delivery into the
// next phase and break the stepped barrier contract.
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
	t.regMu.Lock()
	t.mu.Lock()
	select {
	case <-t.done:
	default:
		close(t.done)
	}
	t.mu.Unlock()
	t.mux.closeAll()
	for key, lis := range t.listeners {
		lis.close()
		delete(t.listeners, key)
	}
	t.regMu.Unlock()
	t.wg.Wait()
	return nil
}

type tcpEndpoint struct {
	net     *TCPNet
	id      model.NodeID
	handler Handler
	lis     *tcpListener
}

func (e *tcpEndpoint) NodeID() model.NodeID { return e.id }

// KeepsPayload implements Endpoint: Send copies the payload into the
// connection's batch buffer (or, capped, into the link queue) or writes
// it through before it returns.
func (e *tcpEndpoint) KeepsPayload() bool { return false }

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
	outcome, copies := e.net.faults.admitLent(msg)
	if outcome != OutcomePass {
		return nil
	}
	return e.net.sendFrame(msg, copies)
}

// tcpListener is one listening address of a TCPNet and the ids it hosts:
// one accept loop, and one read loop per inbound connection, whatever the
// number of ids registered at the address.
type tcpListener struct {
	net  *TCPNet
	key  string // its TCPNet.listeners key
	addr string // the address peers dial: the book's, or the resolved ephemeral one
	ln   net.Listener
	live int // ids registered here now; under TCPNet.regMu

	mu sync.Mutex
	// hosted holds every id registered here since the listener opened
	// (and, for a static address, every id the book places at it). A frame
	// for an id outside it is a protocol violation that drops the
	// connection; one for an id that has left is read and then discarded
	// at drain, so the connection stays up for the other ids.
	hosted   map[model.NodeID]struct{}
	accepted map[net.Conn]struct{} // inbound, closed on teardown
}

// host lets the listener's connections carry frames for id.
func (l *tcpListener) host(id model.NodeID) {
	l.mu.Lock()
	l.hosted[id] = struct{}{}
	l.mu.Unlock()
}

// hosts reports whether a frame may be addressed to id on this listener's
// connections.
func (l *tcpListener) hosts(id model.NodeID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.hosted[id]
	return ok
}

func (l *tcpListener) acceptLoop() {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		l.accepted[conn] = struct{}{}
		l.mu.Unlock()
		l.net.wg.Add(1)
		go func() {
			defer l.net.wg.Done()
			l.readLoop(conn)
			l.mu.Lock()
			delete(l.accepted, conn)
			l.mu.Unlock()
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

// readLoop decodes one inbound connection's frames, jumbos unpacked, and
// delivers each. A framing violation, including a frame for an id the
// listener never hosted, drops the connection.
func (l *tcpListener) readLoop(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	fr := newFrameReader(countingReader{c: conn, io: &l.net.io}, l.hosts)
	defer fr.close()
	for {
		h, payload, err := fr.next()
		if err != nil {
			return
		}
		select {
		case <-l.net.done:
			return
		default:
		}
		l.net.io.framesIn.Add(1)
		l.net.deliver(Message{From: h.from, To: h.to, Kind: h.kind, Payload: payload}, fr.arena)
	}
}

// deliver runs one decoded frame through the receive-side pipeline —
// the plane's Arrive, then the inbox. The payload aliases arena, which the
// queued message retains until drainInbox has handled it.
func (t *TCPNet) deliver(msg Message, arena *wire.Arena) {
	// A frame that was in flight when its link partitioned or an end went
	// down is lost here (counted once — admission passed it); any other is
	// charged to its receiver.
	if !t.faults.Arrive(msg) {
		t.inflight.Add(-1)
		return
	}
	arena.Retain()
	t.inboxMu.Lock()
	first := len(t.inbox) == 0
	t.inbox = append(t.inbox, queuedDelivery{msg: msg, arena: arena})
	t.inboxMu.Unlock()
	if first {
		// Only the empty → non-empty edge wakes a DeliverUntil, so a burst
		// costs one token, and DeliverAll, which never waits on it, pays
		// nothing per frame.
		select {
		case t.arrived <- struct{}{}:
		default:
		}
	}
	t.inflight.Add(-1)
}

// close tears the listener off the wire: the listener and the inbound
// connections peers dialed to it (their next write fails, forcing a
// re-dial that the closed listener rejects) — so the address stops
// receiving, not just accepting. Outbound connections live in the shared
// mux and are dropped by Unregister/Close.
func (l *tcpListener) close() {
	_ = l.ln.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.accepted {
		_ = c.Close()
		delete(l.accepted, c)
	}
}
