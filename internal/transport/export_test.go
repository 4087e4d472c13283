package transport

import "repro/internal/model"

// QueueDepthOf returns how many messages one node's upload queue holds.
func (p *FaultPlane) QueueDepthOf(id model.NodeID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queues[id])
}
