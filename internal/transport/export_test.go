package transport

import "repro/internal/model"

// QueueDepthOf returns how many messages one node's upload queue holds.
func (p *FaultPlane) QueueDepthOf(id model.NodeID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queues[id])
}

// deliverPending delivers one wave: the currently pending messages (a
// snapshot — messages sent by handlers during delivery are buffered for
// the next wave). It returns how many were delivered.
func (n *MemNet) deliverPending() int {
	wave := n.takeWave()
	runWave(wave)
	n.handled(wave)
	return len(wave)
}
