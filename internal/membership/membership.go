// Package membership provides the membership substrate PAG assumes (§III):
// "a membership protocol (e.g., Fireflies) provides nodes with a set of
// successors and monitors that can be identified, for a given round, by
// each node in the system".
//
// The directory keeps the member list and derives, from a shared seed,
// deterministic pseudo-random successor and monitor assignments per round —
// every node (and every monitor) can recompute every other node's
// assignments, which is exactly the capability the accountability checks
// rely on. Predecessor sets are the inverse of the successor relation.
//
// Membership is epochal: Join and Leave take effect at a given round and
// open a new epoch. Assignments for round r are always derived from the
// membership in effect at r, so verification that happens one or two
// rounds late (monitors check round r-1 obligations during round r) keeps
// seeing exactly the assignment the participants acted under — even after
// a churn event re-drew everything for later rounds.
package membership

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
)

// Config parameterises a Directory.
type Config struct {
	// Seed is the shared randomness all nodes derive assignments from.
	Seed uint64
	// Fanout is the number of successors per node per round (f).
	Fanout int
	// Monitors is the number of monitors per node (f_m; the paper uses
	// the same value as the fanout, §VII-A).
	Monitors int
	// Metrics optionally attaches the observability registry: epoch
	// transitions, joins, leaves, evictions and quarantine rejections
	// are counted, and the current member count is a gauge (membership
	// mutations happen single-threaded at round tops, which is what the
	// gauge's determinism contract requires).
	Metrics *obs.Registry
	// Trace optionally attaches the round-event tracer; may be nil.
	Trace *obs.Tracer
}

// epoch is one immutable membership snapshot: the member set in effect
// from round start (inclusive) until the next epoch's start.
type epoch struct {
	seq   int         // 0-based epoch number; folded into the pick seed
	start model.Round // first round this membership is effective
	nodes []model.NodeID
	index map[model.NodeID]int
}

// Directory is the full-membership view. It is safe for concurrent use,
// and tuned for the round engine's access pattern: mutations (Join/Leave)
// only happen at round tops, single-threaded, while reads fan out across
// worker goroutines during the phases. Reads therefore take a shared lock
// and hit immutable per-round snapshots — the materialised RoundView and
// the memoised monitor sets — so concurrent node steps never serialise on
// assignment computation.
type Directory struct {
	cfg Config

	mu     sync.RWMutex
	epochs []*epoch                   // append-only, non-decreasing starts
	views  map[model.Round]*RoundView // small LRU by round

	// monitors memoises Monitors() per (membership epoch, node): the
	// rendezvous scan is O(N) per call and monitor lookups are
	// the hottest directory read the accountability checks make.
	monitors map[monKey][]model.NodeID

	// quarantine bars evicted ids from re-joining until the recorded
	// round — the membership half of the accountability plane's
	// punishment loop (Evict).
	quarantine map[model.NodeID]model.Round

	// Observability instruments (nil without a registry).
	epochsC     *obs.Counter
	joinsC      *obs.Counter
	leavesC     *obs.Counter
	evictionsC  *obs.Counter
	rejectionsC *obs.Counter
	membersG    *obs.Gauge
	trace       *obs.Tracer
}

// QuarantineError rejects a Join of an id still serving an eviction
// quarantine. Callers distinguish it (errors.As) from other Join failures
// to count re-join attacks.
type QuarantineError struct {
	Node model.NodeID
	// Until is the first round the id may re-join.
	Until model.Round
}

// Error implements error.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("membership: node %v is quarantined until round %v", e.Node, e.Until)
}

// monKey identifies one memoised monitor set.
type monKey struct {
	epoch int
	node  model.NodeID
}

// New creates a Directory over the given members (epoch 0, effective from
// round 0).
func New(nodes []model.NodeID, cfg Config) (*Directory, error) {
	if cfg.Fanout <= 0 {
		return nil, fmt.Errorf("membership: fanout %d must be positive", cfg.Fanout)
	}
	if cfg.Monitors <= 0 {
		return nil, fmt.Errorf("membership: monitor count %d must be positive", cfg.Monitors)
	}
	if len(nodes) < 2 {
		return nil, errors.New("membership: need at least two nodes")
	}
	sorted := make([]model.NodeID, 0, len(nodes))
	seen := make(map[model.NodeID]bool, len(nodes))
	for _, n := range nodes {
		if n == model.NoNode {
			return nil, errors.New("membership: NoNode cannot be a member")
		}
		if seen[n] {
			return nil, fmt.Errorf("membership: duplicate node %v", n)
		}
		seen[n] = true
		sorted = append(sorted, n)
	}
	slices.Sort(sorted)
	if cfg.Fanout >= len(sorted) {
		return nil, fmt.Errorf("membership: fanout %d must be < system size %d",
			cfg.Fanout, len(sorted))
	}
	if cfg.Monitors >= len(sorted) {
		return nil, fmt.Errorf("membership: monitor count %d must be < system size %d",
			cfg.Monitors, len(sorted))
	}
	d := &Directory{
		cfg:         cfg,
		epochs:      []*epoch{newEpoch(0, 0, sorted)},
		views:       make(map[model.Round]*RoundView),
		monitors:    make(map[monKey][]model.NodeID),
		quarantine:  make(map[model.NodeID]model.Round),
		epochsC:     cfg.Metrics.Counter("pag_membership_epochs_total"),
		joinsC:      cfg.Metrics.Counter("pag_membership_joins_total"),
		leavesC:     cfg.Metrics.Counter("pag_membership_leaves_total"),
		evictionsC:  cfg.Metrics.Counter("pag_membership_evictions_total"),
		rejectionsC: cfg.Metrics.Counter("pag_membership_quarantine_rejections_total"),
		membersG:    cfg.Metrics.Gauge("pag_membership_members"),
		trace:       cfg.Trace,
	}
	// The founding epoch counts like any other: epochs_total is the
	// number of epochs the directory has held, not just transitions.
	d.epochsC.Inc()
	d.membersG.Set(int64(len(sorted)))
	return d, nil
}

func newEpoch(seq int, start model.Round, sorted []model.NodeID) *epoch {
	index := make(map[model.NodeID]int, len(sorted))
	for i, n := range sorted {
		index[n] = i
	}
	return &epoch{seq: seq, start: start, nodes: sorted, index: index}
}

// epochFor returns the epoch in effect at round r; callers hold d.mu.
// Starts are non-decreasing, and among equal starts the later entry wins.
func (d *Directory) epochFor(r model.Round) *epoch {
	for i := len(d.epochs) - 1; i > 0; i-- {
		if d.epochs[i].start <= r {
			return d.epochs[i]
		}
	}
	return d.epochs[0]
}

func (d *Directory) current() *epoch { return d.epochs[len(d.epochs)-1] }

// Join adds a member, opening a new epoch effective at round from. Every
// assignment for rounds >= from is re-drawn over the grown member set;
// rounds before are untouched.
func (d *Directory) Join(id model.NodeID, from model.Round) error {
	if id == model.NoNode {
		return errors.New("membership: NoNode cannot join")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if until, barred := d.quarantine[id]; barred {
		if from < until {
			d.rejectionsC.Inc()
			if d.trace != nil {
				d.trace.Emit("membership_quarantine_rejection",
					obs.F("round", from), obs.F("node", id), obs.F("until", until))
			}
			return &QuarantineError{Node: id, Until: until}
		}
		// Quarantine served: the id may re-enter.
		delete(d.quarantine, id)
	}
	cur := d.current()
	if from < cur.start {
		return fmt.Errorf("membership: join at %v predates current epoch (start %v)",
			from, cur.start)
	}
	if _, ok := cur.index[id]; ok {
		return fmt.Errorf("membership: node %v already a member", id)
	}
	grown := make([]model.NodeID, 0, len(cur.nodes)+1)
	grown = append(grown, cur.nodes...)
	grown = append(grown, id)
	slices.Sort(grown)
	d.pushEpoch(from, grown)
	d.joinsC.Inc()
	return nil
}

// Leave removes a member, opening a new epoch effective at round from. The
// member set must stay large enough for the configured fanout and monitor
// count.
func (d *Directory) Leave(id model.NodeID, from model.Round) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.remove(id, from); err != nil {
		return err
	}
	d.leavesC.Inc()
	return nil
}

// Evict removes a member like Leave and additionally quarantines its id:
// Join rejects it (with a QuarantineError) for every round before until.
// This is the punishment hook of §II-B made concrete — convicted nodes
// are expelled from the membership, which by construction excludes them
// from every successor and monitor assignment of subsequent epochs.
func (d *Directory) Evict(id model.NodeID, from, until model.Round) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.remove(id, from); err != nil {
		return err
	}
	if until > from {
		d.quarantine[id] = until
	}
	d.evictionsC.Inc()
	if d.trace != nil {
		d.trace.Emit("membership_eviction",
			obs.F("round", from), obs.F("node", id), obs.F("quarantine_until", until))
	}
	return nil
}

// QuarantinedUntil reports whether id is quarantined, and until which
// round.
func (d *Directory) QuarantinedUntil(id model.NodeID) (model.Round, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	until, ok := d.quarantine[id]
	return until, ok
}

// remove drops a member and opens a new epoch; callers hold d.mu.
func (d *Directory) remove(id model.NodeID, from model.Round) error {
	cur := d.current()
	if from < cur.start {
		return fmt.Errorf("membership: leave at %v predates current epoch (start %v)",
			from, cur.start)
	}
	if _, ok := cur.index[id]; !ok {
		return fmt.Errorf("membership: node %v is not a member", id)
	}
	n := len(cur.nodes) - 1
	if n <= d.cfg.Fanout || n <= d.cfg.Monitors || n < 2 {
		return fmt.Errorf("membership: removing %v would shrink the system to %d nodes, below fanout %d / monitors %d",
			id, n, d.cfg.Fanout, d.cfg.Monitors)
	}
	shrunk := make([]model.NodeID, 0, n)
	for _, m := range cur.nodes {
		if m != id {
			shrunk = append(shrunk, m)
		}
	}
	d.pushEpoch(from, shrunk)
	return nil
}

// pushEpoch appends a new epoch and invalidates cached views it obsoletes;
// callers hold d.mu. Monitor memos are keyed by epoch sequence, so a new
// epoch never invalidates them — except after a DropLastEpoch, which
// purges the dropped sequence explicitly.
func (d *Directory) pushEpoch(from model.Round, sorted []model.NodeID) {
	d.epochs = append(d.epochs, newEpoch(len(d.epochs), from, sorted))
	for r := range d.views {
		if r >= from {
			delete(d.views, r)
		}
	}
	d.epochsC.Inc()
	d.membersG.Set(int64(len(sorted)))
	if d.trace != nil {
		// "epoch", not "seq": the tracer envelope owns the "seq" key and a
		// duplicate would shadow it in decoded journals.
		d.trace.Emit("membership_epoch", obs.F("epoch", len(d.epochs)-1),
			obs.F("start", from), obs.F("members", len(sorted)))
	}
}

// purgeMonitors drops the memoised monitor sets of one epoch sequence;
// callers hold d.mu.
func (d *Directory) purgeMonitors(seq int) {
	for k := range d.monitors {
		if k.epoch == seq {
			delete(d.monitors, k)
		}
	}
}

// DropLastEpoch reverts the most recent Join/Leave — the rollback hook for
// a driver whose node construction failed after the membership mutation.
// Only the latest epoch can be dropped, and never epoch 0. Callers must
// guarantee no round has yet run under the dropped epoch.
func (d *Directory) DropLastEpoch() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.epochs) < 2 {
		return errors.New("membership: no epoch to drop")
	}
	victim := d.epochs[len(d.epochs)-1]
	d.epochs = d.epochs[:len(d.epochs)-1]
	for r := range d.views {
		if r >= victim.start {
			delete(d.views, r)
		}
	}
	// The next pushEpoch reuses the victim's sequence number over a
	// different member set, so its monitor memos must not survive.
	d.purgeMonitors(victim.seq)
	return nil
}

// N returns the current system size.
func (d *Directory) N() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.current().nodes)
}

// Fanout returns the configured fanout.
func (d *Directory) Fanout() int { return d.cfg.Fanout }

// Nodes returns the current member list in ascending order (a copy).
func (d *Directory) Nodes() []model.NodeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return copyIDs(d.current().nodes)
}

// MembersAt returns the member list in effect at round r (a copy).
func (d *Directory) MembersAt(r model.Round) []model.NodeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return copyIDs(d.epochFor(r).nodes)
}

// Contains reports whether id is currently a member.
func (d *Directory) Contains(id model.NodeID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.current().index[id]
	return ok
}

// ContainsAt reports whether id is a member at round r.
func (d *Directory) ContainsAt(id model.NodeID, r model.Round) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.epochFor(r).index[id]
	return ok
}

// RoundView is the materialised assignment of one round.
type RoundView struct {
	round model.Round
	succ  map[model.NodeID][]model.NodeID
	pred  map[model.NodeID][]model.NodeID
}

// Round returns the view's round.
func (v *RoundView) Round() model.Round { return v.round }

// Successors returns the successor set of x (a copy).
func (v *RoundView) Successors(x model.NodeID) []model.NodeID {
	return copyIDs(v.succ[x])
}

// Predecessors returns every node whose successor set contains x (a copy).
func (v *RoundView) Predecessors(x model.NodeID) []model.NodeID {
	return copyIDs(v.pred[x])
}

// View materialises (and caches) the assignment for round r. The fast
// path is a shared-lock cache hit on an immutable snapshot, so concurrent
// readers during a round never serialise; the round engine prewarms the
// current round's view before fanning node steps out.
func (d *Directory) View(r model.Round) *RoundView {
	d.mu.RLock()
	v, ok := d.views[r]
	d.mu.RUnlock()
	if ok {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.views[r]; ok {
		return v
	}
	v = d.buildView(r)
	// Keep the cache small: drop views older than a playout window.
	const keep = 16
	if len(d.views) >= keep {
		var oldest model.Round
		first := true
		for rr := range d.views {
			if first || rr < oldest {
				oldest = rr
				first = false
			}
		}
		delete(d.views, oldest)
	}
	d.views[r] = v
	return v
}

func (d *Directory) buildView(r model.Round) *RoundView {
	ep := d.epochFor(r)
	v := &RoundView{
		round: r,
		succ:  make(map[model.NodeID][]model.NodeID, len(ep.nodes)),
		pred:  make(map[model.NodeID][]model.NodeID, len(ep.nodes)),
	}
	for _, x := range ep.nodes {
		succ := d.pick(ep, x, r, 0xA5CE55, d.cfg.Fanout)
		v.succ[x] = succ
		for _, s := range succ {
			v.pred[s] = append(v.pred[s], x)
		}
	}
	for _, x := range ep.nodes {
		slices.Sort(v.pred[x])
	}
	return v
}

// Successors returns x's successors in round r.
func (d *Directory) Successors(x model.NodeID, r model.Round) []model.NodeID {
	return d.View(r).Successors(x)
}

// Predecessors returns x's predecessors in round r.
func (d *Directory) Predecessors(x model.NodeID, r model.Round) []model.NodeID {
	return d.View(r).Predecessors(x)
}

// ExchangeSlot returns the slot of round r in which pred opens its exchange
// with succ: pred's rank in succ's predecessor list (ascending ids, the list
// every member derives), capped at fanout−1 so a round has exactly fanout
// slots whatever succ's in-degree — the predecessors ranked fanout−1 and
// beyond share the last one. The successor answers a later slot's
// KeyRequest knowing what the earlier slots served it (§V-D). ok is false
// when succ is not one of pred's successors in round r.
func (d *Directory) ExchangeSlot(pred, succ model.NodeID, r model.Round) (slot int, ok bool) {
	rank, ok := slices.BinarySearch(d.View(r).pred[succ], pred)
	return min(rank, d.cfg.Fanout-1), ok
}

// MonitorEpoch returns the membership epoch of round r. Monitor sets are
// drawn per membership epoch, so they can change only where it does: at a
// join, leave or eviction, which all take effect at a round top.
func (d *Directory) MonitorEpoch(r model.Round) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epochFor(r).seq
}

// Monitors returns the monitor set M(x) in effect at round r: the
// MonitorCount members with the lowest deterministic rendezvous scores for
// x. Rendezvous hashing keeps assignments sticky under churn — a membership transition only changes M(x) when one of x's
// monitors actually left (the next-ranked member takes over) or a joiner
// ranks into the set — which is what lets monitors carry their accumulated
// obligations across epoch boundaries instead of re-drawing wholesale
// every time anyone joins or leaves.
//
// The result is the directory's memo, shared by every caller: read it,
// never write to it or append to it in place (slices.Clone first).
func (d *Directory) Monitors(x model.NodeID, r model.Round) []model.NodeID {
	d.mu.RLock()
	ep := d.epochFor(r)
	key := monKey{epoch: ep.seq, node: x}
	memo, hit := d.monitors[key]
	d.mu.RUnlock()
	if hit {
		return memo
	}
	k := d.cfg.Monitors

	base := d.cfg.Seed ^ uint64(x)*0x9E3779B97F4A7C15 ^ 0x300717035
	type scored struct {
		id    model.NodeID
		score uint64
	}
	top := make([]scored, 0, k)
	for _, m := range ep.nodes {
		if m == x {
			continue
		}
		c := scored{id: m, score: model.Hash64(base ^ uint64(m)*0x94D049BB133111EB)}
		if len(top) == k && c.score >= top[k-1].score {
			continue
		}
		// Insertion sort into the small top-k window.
		pos := len(top)
		if pos < k {
			top = append(top, c)
		} else {
			pos = k - 1
		}
		for pos > 0 && top[pos-1].score > c.score {
			top[pos] = top[pos-1]
			pos--
		}
		top[pos] = c
	}
	out := make([]model.NodeID, len(top))
	for i, c := range top {
		out[i] = c.id
	}
	slices.Sort(out)

	d.mu.Lock()
	// Keep the memo bounded by evicting entries from other membership
	// epochs — long-gone ones are never asked for again, and
	// the handful of boundary queries (a monitor checking round r−1 just
	// after a transition) rebuild cheaply. The current epoch's hot
	// entries survive, so steady state never rescans.
	if len(d.monitors) > 8*len(ep.nodes)+64 {
		for k := range d.monitors {
			if k.epoch != key.epoch {
				delete(d.monitors, k)
			}
		}
	}
	d.monitors[key] = out
	d.mu.Unlock()
	return out
}

// IsMonitorOf reports whether m ∈ M(x) at round r.
func (d *Directory) IsMonitorOf(m, x model.NodeID, r model.Round) bool {
	for _, id := range d.Monitors(x, r) {
		if id == m {
			return true
		}
	}
	return false
}

// pick deterministically selects k distinct members of ep other than x,
// seeded by (seed, epoch, x, r, salt). Selection is a partial Fisher–Yates
// over the sorted member list driven by a splitmix64 stream, so every
// process derives the same assignment. Epoch 0 seeds are identical to the
// pre-epoch directory, keeping static-membership runs reproducible across
// versions.
func (d *Directory) pick(ep *epoch, x model.NodeID, r model.Round, salt uint64, k int) []model.NodeID {
	rng := &model.SplitMix64{State: d.cfg.Seed ^
		uint64(x)*0x9E3779B97F4A7C15 ^
		uint64(r)*0xBF58476D1CE4E5B9 ^
		uint64(ep.seq)*0x94D049BB133111EB ^
		salt}
	n := len(ep.nodes)
	// Partial Fisher–Yates over index space, skipping x when it is a
	// member. The shuffle only ever touches 2k positions of the virtual
	// identity permutation, so instead of materialising an n-entry index
	// slice (O(N) per call — O(N²) per round across a view build) only the
	// displaced positions are recorded in a small overlay. The RNG stream
	// and swap sequence are exactly those of the dense version, so the
	// selection is output-identical (locked in by TestPickMatchesDense).
	var ov overlay
	limit := n
	self, hasSelf := ep.index[x]
	if !hasSelf {
		self = -1
	} else {
		// Move self to the end and shrink, so it is never selected.
		limit = n - 1
	}

	out := make([]model.NodeID, 0, k)
	for i := 0; i < k && i < limit; i++ {
		j := i + int(rng.Next()%uint64(limit-i))
		vi, vj := ov.get(i, self, n), ov.get(j, self, n)
		ov.set(i, vj)
		ov.set(j, vi)
		out = append(out, ep.nodes[vj])
	}
	slices.Sort(out)
	return out
}

// overlay is the sparse Fisher–Yates state: the handful of positions whose
// value differs from the identity permutation (after the self-to-end swap).
// k is small (the fanout), so a linear scan beats a map.
type overlay struct {
	pos []int
	val []int
}

// get reads position i of the virtual permutation: overlay hit, else the
// identity adjusted for the initial self<->last swap.
func (o *overlay) get(i, self, n int) int {
	for idx, p := range o.pos {
		if p == i {
			return o.val[idx]
		}
	}
	if self >= 0 {
		if i == self {
			return n - 1
		}
		if i == n-1 {
			return self
		}
	}
	return i
}

// set records position i holding v.
func (o *overlay) set(i, v int) {
	for idx, p := range o.pos {
		if p == i {
			o.val[idx] = v
			return
		}
	}
	o.pos = append(o.pos, i)
	o.val = append(o.val, v)
}

func copyIDs(in []model.NodeID) []model.NodeID {
	if in == nil {
		return nil
	}
	out := make([]model.NodeID, len(in))
	copy(out, in)
	return out
}
