package transport

import (
	"fmt"
	"net"
	"sync"
)

// Connection multiplexing. The mux keys outbound connections by
// destination address and shares them across all endpoints of the
// process: one socket per destination address. An address is one
// listener however many ids it hosts (tcp.go), so frames from different
// local senders to different ids there interleave safely on one stream —
// every frame carries its own from and to fields. An in-process session
// on the dynamic roster therefore runs over one loopback connection, and
// a deployment over one per ordered pair of processes. Dials run
// outside all locks with singleflight per address — concurrent senders to
// a cold destination wait on one dial instead of racing their own.

// dialCall is a singleflight slot: the first caller dials, later callers
// wait on done.
type dialCall struct {
	done chan struct{}
	w    *connWriter
	err  error
}

// connMux is the process-wide (per-TCPNet) outbound connection cache.
type connMux struct {
	net *TCPNet

	mu    sync.Mutex
	conns map[string]*connWriter
	dials map[string]*dialCall
	// pending lists the writers that enqueued a frame since the last
	// flushAll, each once (connWriter.queued): the only ones it visits.
	pending []*connWriter

	flushMu sync.Mutex    // one flushAll at a time
	spare   []*connWriter // the previous pass's list, emptied; under flushMu
}

func newConnMux(t *TCPNet) *connMux {
	return &connMux{
		net:   t,
		conns: make(map[string]*connWriter),
		dials: make(map[string]*dialCall),
	}
}

// get returns the shared connection writer for addr, dialing it if
// needed. The dial happens outside cm.mu (and outside every endpoint
// lock): other senders to the same cold address join the in-flight dial,
// senders to other addresses are never blocked.
func (cm *connMux) get(addr string) (*connWriter, error) {
	cm.mu.Lock()
	if w, ok := cm.conns[addr]; ok {
		cm.mu.Unlock()
		return w, nil
	}
	if call, ok := cm.dials[addr]; ok {
		cm.mu.Unlock()
		<-call.done
		return call.w, call.err
	}
	call := &dialCall{done: make(chan struct{})}
	cm.dials[addr] = call
	cm.mu.Unlock()

	conn, err := net.Dial("tcp", addr)
	cm.mu.Lock()
	delete(cm.dials, addr)
	if err != nil {
		call.err = fmt.Errorf("transport: dial %s: %w", addr, err)
	} else {
		call.w = newConnWriter(cm, addr, conn)
		cm.conns[addr] = call.w
	}
	cm.mu.Unlock()
	close(call.done)
	return call.w, call.err
}

// markPending puts a writer on the next flushAll's list; the writer calls
// it with its own lock held, on its first enqueue since that pass.
func (cm *connMux) markPending(w *connWriter) {
	cm.mu.Lock()
	cm.pending = append(cm.pending, w)
	cm.mu.Unlock()
}

// drop removes a dead connection from the cache (the next sender
// re-dials) and unwinds anything still pending on its writer.
func (cm *connMux) drop(w *connWriter) {
	cm.mu.Lock()
	if cm.conns[w.addr] == w {
		delete(cm.conns, w.addr)
	}
	cm.mu.Unlock()
	w.fail(fmt.Errorf("transport: connection to %s dropped", w.addr))
	_ = w.conn.Close()
}

// dropAddr closes and forgets the connection to addr, if any — the
// Unregister path once an address's last id has left: its peers must see
// their cached connection die.
func (cm *connMux) dropAddr(addr string) {
	cm.mu.Lock()
	w := cm.conns[addr]
	delete(cm.conns, addr)
	cm.mu.Unlock()
	if w != nil {
		w.fail(fmt.Errorf("transport: destination %s unregistered", addr))
		_ = w.conn.Close()
	}
}

// flushAll flushes every writer that enqueued since the last pass, once;
// dead connections are dropped so their next use re-dials. The pending
// list and its spare swap, so a pass allocates nothing. A dead writer with
// nothing pending is not visited: its sticky error drops it on its next
// enqueue.
func (cm *connMux) flushAll() {
	cm.flushMu.Lock()
	defer cm.flushMu.Unlock()
	cm.mu.Lock()
	batch := cm.pending
	cm.pending = cm.spare[:0]
	cm.mu.Unlock()
	for _, w := range batch {
		if err := w.flushQueued(); err != nil {
			cm.drop(w)
		}
	}
	clear(batch)
	cm.spare = batch
}

// closeAll tears down every cached connection.
func (cm *connMux) closeAll() {
	cm.mu.Lock()
	conns := cm.conns
	cm.conns = make(map[string]*connWriter)
	cm.mu.Unlock()
	for addr, w := range conns {
		w.fail(fmt.Errorf("transport: network closed (%s)", addr))
		_ = w.conn.Close()
	}
}
