package core

// ParkedShellsHoldContent reports whether a recycled pendingItem shell —
// on the free list, or in the stale tail of the forward set's backing
// array — still references an update's payload, signature or embedding.
func (n *Node) ParkedShellsHoldContent() bool {
	held := func(it *pendingItem) bool {
		return it.upd.Payload != nil || it.upd.SrcSig != nil || it.embed != nil
	}
	for _, it := range n.itemFree {
		if held(it) {
			return true
		}
	}
	if n.sendCur != nil {
		all := n.sendCur.items[:cap(n.sendCur.items)]
		for i := len(n.sendCur.items); i < len(all); i++ {
			if held(&all[i]) {
				return true
			}
		}
	}
	return false
}
