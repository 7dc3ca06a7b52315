// Package simnet is the discrete-event network simulator underpinning the
// Contory testbed. It models a set of devices (smart phones, communicators,
// BT peripherals, infrastructure servers) connected by per-medium links
// (Bluetooth, WiFi ad hoc, UMTS), with explicit or range-based connectivity,
// link/node failure injection, node mobility, and per-node power timelines.
//
// Message delivery is scheduled on the shared virtual clock; callers supply
// the latency (sampled from the radio models), so simnet stays a pure
// transport.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"contory/internal/draw"
	"contory/internal/energy"
	"contory/internal/metrics"
	"contory/internal/radio"
	"contory/internal/vclock"
)

// NodeID identifies a device in the network.
type NodeID string

// Position is a 2-D location in metres.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance to other.
func (p Position) Distance(other Position) float64 {
	dx, dy := p.X-other.X, p.Y-other.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Message is a unit of delivery between two nodes over one medium.
type Message struct {
	From    NodeID
	To      NodeID
	Medium  radio.Medium
	Kind    string // application-level dispatch key
	Payload any
	Bytes   int
	SentAt  time.Time
}

// Handler processes a delivered message on the receiving node.
type Handler func(msg Message)

// Errors returned by network operations.
var (
	ErrUnknownNode  = errors.New("simnet: unknown node")
	ErrNotLinked    = errors.New("simnet: nodes not linked on medium")
	ErrNodeDown     = errors.New("simnet: node is down")
	ErrNoHandler    = errors.New("simnet: no handler registered for message kind")
	ErrDuplicateID  = errors.New("simnet: duplicate node id")
	ErrRadioOff     = errors.New("simnet: radio is off")
	ErrSelfDelivery = errors.New("simnet: cannot send to self")
)

// linkKey names an undirected link by its endpoint IDs; it keys the
// per-link loss table.
type linkKey struct {
	a, b   NodeID
	medium radio.Medium
}

func newLinkKey(a, b NodeID, m radio.Medium) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b, medium: m}
}

// maxMedium bounds the per-node radio state and per-medium arrays; media
// are small ints.
const maxMedium = 8

// validMedium reports whether m addresses the per-medium arrays. No radio
// can be on for any other medium, so nothing links over it.
func validMedium(m radio.Medium) bool { return m >= 0 && int(m) < maxMedium }

// nodePair names an undirected link by its endpoints' dense indices: the
// key of the explicit-link and failed-link sets, which hashes no strings.
type nodePair struct{ lo, hi int32 }

func pairOf(a, b *Node) nodePair {
	if a.index > b.index {
		a, b = b, a
	}
	return nodePair{lo: a.index, hi: b.index}
}

// Node is one device in the simulated testbed.
//
// All mutable node state is lock-free: positions and velocities are stored
// as atomic float bits, down/radio flags as atomic bools, and the handler
// table as a copy-on-write map. Hot paths (link checks, grid maintenance,
// message dispatch) therefore never take a per-node lock, and Network code
// holding nw.mu can read node state without any lock-order concern — the
// lock inversion that rebuildGridsLocked used to risk (nw.mu → Node.mu) is
// gone by construction. Position writes are serialised by nw.mu (SetPosition
// and the mobility ticker both hold it), so the X/Y pair is never torn for
// readers inside the lock; lock-free readers outside it run between
// mutation barriers in deterministic runs.
type Node struct {
	id  NodeID
	net *Network

	// index is the node's dense handle, fixed at AddNode; rank is its
	// position in ID order, renumbered (under nw.mu) when a node with a
	// smaller ID is added later.
	index int32
	rank  int32
	// lane is the vclock lane the node's events run on (GlobalLane when the
	// network is not sharded), fixed at AddNode.
	lane int32

	posX, posY atomic.Uint64 // math.Float64bits
	velX, velY atomic.Uint64 // metres/second, applied by mobility ticks
	down       atomic.Bool
	radios     [maxMedium]atomic.Bool // on/off per medium

	hmu      sync.Mutex // serialises handler-table copy-on-write
	handlers atomic.Pointer[map[string]Handler]

	timeline *energy.Timeline
	battery  *energy.Battery
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Index returns the node's dense index: 0 for the first node added to its
// network, 1 for the next, and so on. Tables kept per node (route-search
// scratch, partition membership, the SM runtime table) are addressed by it
// instead of hashing the ID.
func (n *Node) Index() int32 { return n.index }

// Timeline returns the node's power timeline.
func (n *Node) Timeline() *energy.Timeline { return n.timeline }

// Battery returns the node's battery model.
func (n *Node) Battery() *energy.Battery { return n.battery }

// position is the lock-free position accessor used by grid maintenance and
// link checks (safe with or without nw.mu held).
func (n *Node) position() Position {
	return Position{
		X: math.Float64frombits(n.posX.Load()),
		Y: math.Float64frombits(n.posY.Load()),
	}
}

func (n *Node) storePosition(p Position) {
	n.posX.Store(math.Float64bits(p.X))
	n.posY.Store(math.Float64bits(p.Y))
}

func (n *Node) velocity() (vx, vy float64) {
	return math.Float64frombits(n.velX.Load()), math.Float64frombits(n.velY.Load())
}

// Position returns the node's current location.
func (n *Node) Position() Position { return n.position() }

// SetPosition teleports the node, migrating its spatial-grid cells.
func (n *Node) SetPosition(p Position) {
	nw := n.net
	nw.mu.Lock()
	n.storePosition(p)
	nw.moveLocked(n, p)
	nw.mu.Unlock()
}

// SetVelocity sets the node's velocity vector in metres/second; the network
// mobility ticker integrates it.
func (n *Node) SetVelocity(v Position) {
	n.velX.Store(math.Float64bits(v.X))
	n.velY.Store(math.Float64bits(v.Y))
}

// SetRadio switches a medium's radio on or off. Turning a radio off fails
// in-flight deliveries to this node on that medium.
func (n *Node) SetRadio(m radio.Medium, on bool) {
	if !validMedium(m) {
		return
	}
	n.radios[m].Store(on)
}

// RadioOn reports whether the given radio is on.
func (n *Node) RadioOn(m radio.Medium) bool {
	if !validMedium(m) {
		return false
	}
	return n.radios[m].Load()
}

// SetDown marks the node as failed (true) or recovered (false).
func (n *Node) SetDown(down bool) { n.down.Store(down) }

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down.Load() }

// Handle registers the handler for a message kind, replacing any previous
// registration. Registration copies the handler table (copy-on-write), so
// the per-delivery lookup is a lock-free map read.
func (n *Node) Handle(kind string, h Handler) {
	n.hmu.Lock()
	old := n.handlers.Load()
	next := make(map[string]Handler, len(*old)+1)
	for k, v := range *old {
		next[k] = v
	}
	next[kind] = h
	n.handlers.Store(&next)
	n.hmu.Unlock()
}

func (n *Node) handler(kind string) (Handler, bool) {
	h, ok := (*n.handlers.Load())[kind]
	return h, ok
}

// frameCounters is the per-medium frame accounting, swapped atomically so
// hot send/deliver paths never take the network mutex to count. The arrays
// are indexed by medium; Send has already rejected any medium no radio can
// be on for.
type frameCounters struct {
	sent  [maxMedium]*metrics.Counter
	recvd [maxMedium]*metrics.Counter
	lost  [maxMedium]*metrics.Counter
}

// frame is one message in flight. Send takes it from the network's free
// list, fills it and schedules its run callback; the scheduler owns it
// until run fires; deliver copies the message out and returns the frame
// before the handler runs. run is bound once, when the frame is made, so
// a send allocates no closure.
type frame struct {
	nw       *Network
	msg      Message
	from, to *Node
	run      func()
}

// dirLink is a directed link, the key of its loss-decision stream.
type dirLink struct {
	from, to NodeID
	medium   radio.Medium
}

// nodeMedium keys per-node fault state (loss, extra delay) on one medium.
type nodeMedium struct {
	id     NodeID
	medium radio.Medium
}

// partition splits one medium: nodes inside the member set can only talk to
// other members, nodes outside only to other outsiders. members is indexed
// by node index; nodes added after the partition are outsiders.
type partition struct {
	id      int
	members []bool
}

func (p *partition) has(n *Node) bool {
	return int(n.index) < len(p.members) && p.members[n.index]
}

// medium is one medium's connectivity state. The tables a run does not use
// (explicit links, failures, partitions) stay empty, and the link predicate
// skips an empty table with one length check.
type medium struct {
	// rangeM enables range-based linking (0 = explicit links only); grid
	// is the medium's spatial index while it is on (cell size = the range,
	// so candidates beyond range cannot appear outside the 3×3 cell
	// neighborhood). It is maintained incrementally: AddNode inserts into
	// every active grid, position changes migrate only the moved node's
	// cell, and SetRange rebuilds only its own medium.
	rangeM float64
	grid   *grid

	links  map[nodePair]struct{} // explicit links
	adj    [][]*Node             // explicit-link adjacency, by node index
	failed map[nodePair]struct{}
	parts  []*partition
}

// Network is the simulated testbed fabric.
type Network struct {
	clock *vclock.Simulator

	// lanes > 0 shards nodes across that many vclock lanes (set once by
	// EnableSharding before any node exists, read-only afterwards), and
	// laneClocks holds each lane's Clock handle, made there too.
	lanes      int
	laneClocks []*vclock.Lane

	mu       sync.Mutex
	nodes    map[NodeID]*Node
	nodeList []*Node // in ID order (nodeList[n.rank] == n); maintained by AddNode
	media    [maxMedium]medium
	spare    []*frame            // free in-flight frames, capped at maxSpareFrames
	loss     map[linkKey]float64 // per-link drop probability
	seed     uint64

	// Fault-injection state (internal/chaos): partitions live in media;
	// per-node drop probability (degraded RSSI, provider hang at p=1) and
	// per-node extra delivery latency (slow response) live here.
	nextPart  int
	nodeLoss  map[nodeMedium]float64
	nodeDelay map[nodeMedium]time.Duration

	// faultLoss and faultDelay count active loss/delay entries so the
	// per-delivery fast path can skip the mutex entirely when no fault is
	// installed — the common case for every scale benchmark.
	faultLoss  atomic.Int32
	faultDelay atomic.Int32

	// search is the route-search and neighbour-query scratch (guarded by mu).
	search search

	// lossDraws holds each directed link's loss-decision stream, keyed on
	// (seed, link) and advanced once per lossy delivery on that link.
	lossMu    sync.Mutex
	lossDraws map[dirLink]draw.Stream

	dropped  atomic.Int64
	delivers atomic.Int64

	metrics *metrics.Registry
	frames  atomic.Pointer[frameCounters]

	mobility *vclock.Timer
}

// New returns an empty Network on the given simulator clock.
func New(clock *vclock.Simulator) *Network {
	return &Network{
		clock:     clock,
		nodes:     make(map[NodeID]*Node),
		loss:      make(map[linkKey]float64),
		seed:      1,
		nodeLoss:  make(map[nodeMedium]float64),
		nodeDelay: make(map[nodeMedium]time.Duration),
		lossDraws: make(map[dirLink]draw.Stream),
	}
}

// EnableSharding assigns every (future) node to one of n vclock lanes, so
// parallel batch runs preserve per-device ordering while devices on
// different lanes execute concurrently. It must be called before any node
// is added.
func (nw *Network) EnableSharding(n int) error {
	if n < 1 {
		return fmt.Errorf("simnet: sharding needs >= 1 lane, got %d", n)
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.nodes) > 0 {
		return fmt.Errorf("simnet: sharding must be enabled before nodes are added (%d exist)", len(nw.nodes))
	}
	nw.lanes = n
	nw.laneClocks = make([]*vclock.Lane, n)
	for i := range nw.laneClocks {
		nw.laneClocks[i] = nw.clock.Lane(i)
	}
	return nil
}

// Sharded reports whether lane sharding is enabled.
func (nw *Network) Sharded() bool { return nw.lanes > 0 }

// Lanes returns the shard count (0 when not sharded).
func (nw *Network) Lanes() int { return nw.lanes }

// LaneOf returns the vclock lane a node executes on, or vclock.GlobalLane
// when sharding is off. The assignment is a stable hash of the ID, so it is
// independent of insertion order.
func (nw *Network) LaneOf(id NodeID) int32 {
	if nw.lanes <= 0 {
		return vclock.GlobalLane
	}
	return int32(draw.HashID(string(id)) % uint64(nw.lanes))
}

// ClockFor returns the Clock a node's components must schedule through: the
// node's lane handle when sharded (keeping all of the device's callbacks on
// its shard), the simulator itself otherwise.
func (nw *Network) ClockFor(id NodeID) vclock.Clock {
	if nw.lanes <= 0 {
		return nw.clock
	}
	return nw.laneClocks[nw.LaneOf(id)]
}

// SetMetrics attaches a metrics registry: frames sent, delivered and
// dropped are counted per medium ("simnet.frames.sent.bt", …), and the
// power timelines of all present and future nodes feed per-operation
// energy gauges into the same registry.
func (nw *Network) SetMetrics(reg *metrics.Registry) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.metrics = reg
	fc := &frameCounters{}
	for _, m := range []radio.Medium{radio.MediumInternal, radio.MediumBT, radio.MediumWiFi, radio.MediumUMTS} {
		fc.sent[m] = reg.Counter("simnet.frames.sent." + m.String())
		fc.recvd[m] = reg.Counter("simnet.frames.delivered." + m.String())
		fc.lost[m] = reg.Counter("simnet.frames.dropped." + m.String())
	}
	nw.frames.Store(fc)
	for _, n := range nw.nodes {
		n.timeline.SetMetrics(reg)
	}
}

// Seed re-seeds the network's loss model for deterministic runs: every
// directed link's decision stream restarts under the new seed.
func (nw *Network) Seed(seed int64) {
	nw.mu.Lock()
	nw.seed = uint64(seed)
	nw.mu.Unlock()
	nw.lossMu.Lock()
	clear(nw.lossDraws)
	nw.lossMu.Unlock()
}

// SetLoss makes the link between a and b on m lossy: each delivery is
// dropped with probability p (0 ≤ p ≤ 1). The field trials saw roughly one
// BT disconnection per hour; lossy links model this radio unreliability.
func (nw *Network) SetLoss(a, b NodeID, m radio.Medium, p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	key := newLinkKey(a, b, m)
	_, had := nw.loss[key]
	if p == 0 {
		if had {
			delete(nw.loss, key)
			nw.faultLoss.Add(-1)
		}
		return
	}
	nw.loss[key] = p
	if !had {
		nw.faultLoss.Add(1)
	}
}

// lossDrop reports whether a delivery on the link should be lost. When no
// loss fault is installed anywhere (the common case) it returns immediately
// without locking. Otherwise the decision is the next value of the directed
// link's stream, keyed on (seed, from, to, medium): a directed link's
// deliveries run one after another in the receiver's lane, so its n-th
// lossy delivery gets the same verdict in a serial and a sharded run,
// however other links' deliveries interleave.
func (nw *Network) lossDrop(a, b NodeID, m radio.Medium) bool {
	if nw.faultLoss.Load() == 0 {
		return false
	}
	nw.mu.Lock()
	p, lossy := nw.loss[newLinkKey(a, b, m)]
	// Per-node loss (degraded RSSI, hung provider) on either endpoint
	// composes with link loss as independent drop chances.
	for _, end := range [2]NodeID{a, b} {
		if nl := nw.nodeLoss[nodeMedium{id: end, medium: m}]; nl > 0 {
			p = 1 - (1-p)*(1-nl)
			lossy = true
		}
	}
	seed := nw.seed
	nw.mu.Unlock()
	if !lossy {
		return false
	}
	dk := dirLink{from: a, to: b, medium: m}
	nw.lossMu.Lock()
	s, ok := nw.lossDraws[dk]
	if !ok {
		s = draw.New(draw.Key(seed, draw.HashID(string(a)), draw.HashID(string(b)), uint64(m)))
	}
	u := s.Float64()
	nw.lossDraws[dk] = s
	nw.lossMu.Unlock()
	return u < p
}

// Clock returns the network's simulator.
func (nw *Network) Clock() *vclock.Simulator { return nw.clock }

// AddNode creates a node at the given position with all radios on. When
// sharding is enabled the node's timeline and battery tick on its lane
// clock, so their periodic work stays on the node's shard. The node gets
// the next dense index and its place in ID order, and is inserted into
// every active spatial grid; other media's grids are untouched.
func (nw *Network) AddNode(id NodeID, pos Position) (*Node, error) {
	clk := nw.ClockFor(id)
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, exists := nw.nodes[id]; exists {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	n := &Node{
		id:       id,
		net:      nw,
		index:    int32(len(nw.nodeList)),
		lane:     nw.LaneOf(id),
		timeline: energy.NewTimeline(clk),
		battery:  energy.NewBattery(clk, energy.BatteryConfig{}),
	}
	n.storePosition(pos)
	for _, m := range []radio.Medium{radio.MediumInternal, radio.MediumBT, radio.MediumWiFi, radio.MediumUMTS} {
		n.radios[m].Store(true)
	}
	empty := make(map[string]Handler)
	n.handlers.Store(&empty)
	if nw.metrics != nil {
		n.timeline.SetMetrics(nw.metrics)
	}
	nw.nodes[id] = n
	// Fleet IDs arrive in ID order, so the common insert is an append and
	// costs O(1); an earlier ID shifts the ranks behind it.
	i := len(nw.nodeList)
	if i > 0 && nw.nodeList[i-1].id > id {
		i = sort.Search(i, func(j int) bool { return nw.nodeList[j].id > id })
	}
	nw.nodeList = slices.Insert(nw.nodeList, i, n)
	for j := i; j < len(nw.nodeList); j++ {
		nw.nodeList[j].rank = int32(j)
	}
	for m := range nw.media {
		if g := nw.media[m].grid; g != nil {
			g.insert(n, pos)
		}
	}
	return n, nil
}

// Node returns the node with the given id, or nil.
func (nw *Network) Node(id NodeID) *Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.nodes[id]
}

// Nodes returns all node IDs in stable (sorted) order.
func (nw *Network) Nodes() []NodeID {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	ids := make([]NodeID, len(nw.nodeList))
	for i, n := range nw.nodeList {
		ids[i] = n.id
	}
	return ids
}

// pairLocked resolves two IDs to nodes; nw.mu must be held.
func (nw *Network) pairLocked(a, b NodeID) (*Node, *Node, bool) {
	na, nb := nw.nodes[a], nw.nodes[b]
	return na, nb, na != nil && nb != nil
}

// Connect creates an explicit bidirectional link between a and b on medium m.
func (nw *Network) Connect(a, b NodeID, m radio.Medium) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb, ok := nw.pairLocked(a, b)
	if !ok {
		return fmt.Errorf("%w: %s-%s", ErrUnknownNode, a, b)
	}
	if !validMedium(m) {
		return nil // no radio is on for m: the link could never carry a frame
	}
	md := &nw.media[m]
	key := pairOf(na, nb)
	if _, dup := md.links[key]; dup {
		return nil
	}
	if md.links == nil {
		md.links = make(map[nodePair]struct{})
	}
	md.links[key] = struct{}{}
	md.adjAdd(na, nb)
	md.adjAdd(nb, na)
	return nil
}

// Disconnect removes an explicit link.
func (nw *Network) Disconnect(a, b NodeID, m radio.Medium) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb, ok := nw.pairLocked(a, b)
	if !ok || !validMedium(m) {
		return
	}
	md := &nw.media[m]
	key := pairOf(na, nb)
	if _, linked := md.links[key]; !linked {
		return
	}
	delete(md.links, key)
	md.adjDel(na, nb)
	md.adjDel(nb, na)
}

func (md *medium) adjAdd(from, to *Node) {
	for len(md.adj) <= int(from.index) {
		md.adj = append(md.adj, nil)
	}
	md.adj[from.index] = append(md.adj[from.index], to)
}

func (md *medium) adjDel(from, to *Node) {
	s := md.adj[from.index]
	if i := slices.Index(s, to); i >= 0 {
		md.adj[from.index] = slices.Delete(s, i, i+1)
	}
}

// FailLink marks the link (explicit or range-based) as failed until
// RestoreLink is called. A link with an endpoint that is not a node has
// nothing to fail, and the call is ignored.
func (nw *Network) FailLink(a, b NodeID, m radio.Medium) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb, ok := nw.pairLocked(a, b)
	if !ok || !validMedium(m) {
		return
	}
	md := &nw.media[m]
	if md.failed == nil {
		md.failed = make(map[nodePair]struct{})
	}
	md.failed[pairOf(na, nb)] = struct{}{}
}

// RestoreLink clears a link failure.
func (nw *Network) RestoreLink(a, b NodeID, m radio.Medium) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if na, nb, ok := nw.pairLocked(a, b); ok && validMedium(m) {
		delete(nw.media[m].failed, pairOf(na, nb))
	}
}

// Partition splits the medium into two sides: the given members can only
// reach each other, and every other node can only reach non-members. It
// returns a handle for Heal. Multiple partitions compose (a pair must be on
// the same side of every active partition to communicate). Membership is
// fixed when the partition is made: names that are not nodes yet, and
// nodes added later, are outsiders.
func (nw *Network) Partition(m radio.Medium, members ...NodeID) int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.nextPart++
	if !validMedium(m) {
		return nw.nextPart
	}
	p := &partition{id: nw.nextPart, members: make([]bool, len(nw.nodeList))}
	for _, id := range members {
		if n := nw.nodes[id]; n != nil {
			p.members[n.index] = true
		}
	}
	nw.media[m].parts = append(nw.media[m].parts, p)
	return nw.nextPart
}

// Heal removes a partition previously created by Partition. Unknown handles
// are ignored.
func (nw *Network) Heal(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for m := range nw.media {
		md := &nw.media[m]
		md.parts = slices.DeleteFunc(md.parts, func(p *partition) bool { return p.id == id })
	}
}

// SetNodeLoss makes every delivery to or from the node over m drop with at
// least probability p (composing with any per-link loss as independent
// chances). p = 1 models a hung endpoint that accepts no traffic; p = 0
// clears the fault.
func (nw *Network) SetNodeLoss(id NodeID, m radio.Medium, p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	key := nodeMedium{id: id, medium: m}
	_, had := nw.nodeLoss[key]
	if p == 0 {
		if had {
			delete(nw.nodeLoss, key)
			nw.faultLoss.Add(-1)
		}
		return
	}
	nw.nodeLoss[key] = p
	if !had {
		nw.faultLoss.Add(1)
	}
}

// NodeLoss returns the node's current drop probability on m (0 when none).
func (nw *Network) NodeLoss(id NodeID, m radio.Medium) float64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.nodeLoss[nodeMedium{id: id, medium: m}]
}

// SetNodeDelay adds d to the latency of every delivery to or from the node
// over m (a slow-responding provider). d <= 0 clears the fault.
func (nw *Network) SetNodeDelay(id NodeID, m radio.Medium, d time.Duration) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	key := nodeMedium{id: id, medium: m}
	_, had := nw.nodeDelay[key]
	if d <= 0 {
		if had {
			delete(nw.nodeDelay, key)
			nw.faultDelay.Add(-1)
		}
		return
	}
	nw.nodeDelay[key] = d
	if !had {
		nw.faultDelay.Add(1)
	}
}

// extraDelayLocked returns the fault-injected latency surcharge for a
// delivery; nw.mu must be held.
func (nw *Network) extraDelayLocked(from, to NodeID, m radio.Medium) time.Duration {
	return nw.nodeDelay[nodeMedium{id: from, medium: m}] + nw.nodeDelay[nodeMedium{id: to, medium: m}]
}

// SetRange enables range-based connectivity on a medium: any two nodes
// within metres of each other are linked (unless the link is failed).
// A range of 0 disables range-based linking for the medium. Only this
// medium's spatial grid is rebuilt; other grids are untouched.
func (nw *Network) SetRange(m radio.Medium, metres float64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !validMedium(m) {
		return
	}
	md := &nw.media[m]
	md.rangeM = metres
	if metres <= 0 {
		md.grid = nil
		return
	}
	g := newGrid(metres, len(nw.nodeList))
	for _, n := range nw.nodeList {
		g.insert(n, n.position())
	}
	md.grid = g
}

// Linked reports whether a and b can currently communicate over m.
func (nw *Network) Linked(a, b NodeID, m radio.Medium) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb, ok := nw.pairLocked(a, b)
	return ok && validMedium(m) && nw.linkedLocked(na, nb, m)
}

// linkedLocked is the link predicate. It hashes no strings: failures,
// partitions and explicit links are consulted only when the medium has
// any, keyed by node index. nw.mu must be held and m must be valid.
func (nw *Network) linkedLocked(a, b *Node, m radio.Medium) bool {
	if a == b || a.down.Load() || b.down.Load() || !a.radios[m].Load() || !b.radios[m].Load() {
		return false
	}
	md := &nw.media[m]
	if len(md.failed) > 0 {
		if _, failed := md.failed[pairOf(a, b)]; failed {
			return false
		}
	}
	for _, p := range md.parts {
		if p.has(a) != p.has(b) {
			return false
		}
	}
	if r := md.rangeM; r > 0 && a.position().Distance(b.position()) <= r {
		return true
	}
	if len(md.links) > 0 {
		_, linked := md.links[pairOf(a, b)]
		return linked
	}
	return false
}

// grid is a uniform spatial index: nodes bucketed into square cells of
// side = the medium's range. Any pair within range is in the same or an
// adjacent cell, so a 3×3 neighborhood scan finds every range candidate
// (each still verified with the exact link predicate, so link decisions are
// identical to the brute-force scan — the grid only prunes).
//
// The index is incremental: where remembers each node's cell, by node
// index, and a position change removes the node from its old cell and
// inserts it into the new one — O(log cell) for the rank-ordered
// membership — instead of rebuilding every medium's grid on the next
// query. Cells are kept in ID order (by rank), so enumeration is
// deterministic. A cell that empties keeps its map entry and capacity until
// empty cells outnumber occupied ones; then one pass drops them all. Nodes
// shuttling between cells therefore allocate nothing, and the map stays
// within twice the occupied cells.
type grid struct {
	cell  float64
	cells map[uint64][]*Node
	where []uint64 // cell key, by node index
	empty int      // cells in the map with no member
}

func newGrid(cell float64, nodes int) *grid {
	return &grid{
		cell:  cell,
		cells: make(map[uint64][]*Node),
		where: make([]uint64, 0, nodes),
	}
}

// coords returns the cell coordinates covering p.
func (g *grid) coords(p Position) (int, int) {
	return int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))
}

// cellKey packs cell coordinates into a map key. Coordinates beyond 32
// bits alias, which only adds candidates: every one is still checked with
// the link predicate.
func cellKey(x, y int) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

// insert adds a node that must not already be a member.
func (g *grid) insert(n *Node, p Position) {
	for len(g.where) <= int(n.index) {
		g.where = append(g.where, 0)
	}
	k := cellKey(g.coords(p))
	g.where[n.index] = k
	g.add(k, n)
}

// move migrates a member to the cell for p; a no-op when the cell is
// unchanged (the common case for small mobility steps).
func (g *grid) move(n *Node, p Position) {
	k := cellKey(g.coords(p))
	old := g.where[n.index]
	if old == k {
		return
	}
	s := g.cells[old]
	if i, found := rankSearch(s, n); found {
		s = slices.Delete(s, i, i+1)
	}
	g.cells[old] = s
	if len(s) == 0 {
		g.empty++
	}
	g.where[n.index] = k
	g.add(k, n)
	if 2*g.empty > len(g.cells) {
		for key, members := range g.cells {
			if len(members) == 0 {
				delete(g.cells, key)
			}
		}
		g.empty = 0
	}
}

// add inserts n into cell k in rank order.
func (g *grid) add(k uint64, n *Node) {
	s, ok := g.cells[k]
	if ok && len(s) == 0 {
		g.empty--
	}
	i, _ := rankSearch(s, n)
	g.cells[k] = slices.Insert(s, i, n)
}

// rankSearch finds n's place in a rank-ordered cell.
func rankSearch(s []*Node, n *Node) (int, bool) {
	return slices.BinarySearchFunc(s, n, byRank)
}

// byRank orders nodes by ID through their ranks, without comparing
// strings.
func byRank(a, b *Node) int { return cmp.Compare(a.rank, b.rank) }

// neighborsLocked appends to out the nodes linked to n over m, in ID
// order. Candidates come from the explicit-link adjacency plus the 3×3
// grid neighborhood; each is filtered with the link predicate first, and
// only the linked ones are sorted. nw.mu must be held and m must be valid.
func (nw *Network) neighborsLocked(n *Node, m radio.Medium, out []*Node) []*Node {
	start := len(out)
	md := &nw.media[m]
	if int(n.index) < len(md.adj) {
		for _, o := range md.adj[n.index] {
			if nw.linkedLocked(n, o, m) {
				out = append(out, o)
			}
		}
	}
	explicit := len(out) > start
	if g := md.grid; g != nil {
		x, y := g.coords(n.position())
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, o := range g.cells[cellKey(x+dx, y+dy)] {
					if nw.linkedLocked(n, o, m) {
						out = append(out, o)
					}
				}
			}
		}
	}
	found := out[start:]
	slices.SortFunc(found, byRank)
	if explicit {
		found = slices.Compact(found) // adjacency and grid both produced it
	}
	return out[:start+len(found)]
}

// Neighbors returns the IDs of all nodes currently linked to id over m, in
// ID order. The cost is O(degree + local density), not O(all nodes); the
// result slice is the only allocation.
func (nw *Network) Neighbors(id NodeID, m radio.Medium) []NodeID {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.nodes[id]
	if n == nil || !validMedium(m) {
		return nil
	}
	s := &nw.search
	s.nbs = nw.neighborsLocked(n, m, s.nbs[:0])
	if len(s.nbs) == 0 {
		return nil
	}
	out := make([]NodeID, len(s.nbs))
	for i, o := range s.nbs {
		out[i] = o.id
	}
	return out
}

// Relay reports whether the node with the given index may forward traffic
// between other nodes. Route searches call it under the network's lock, so
// it must not call back into the Network. A nil Relay lets every node
// relay.
type Relay func(index int32) bool

// Reach is one node a sweep found, with its hop distance from the origin.
type Reach struct {
	Node *Node
	Hops int
}

// search is the BFS scratch, guarded by nw.mu. Its arrays are addressed by
// node index; a node is visited in the current search when its stamp
// equals gen, so starting a search is one increment, not a clear.
type search struct {
	gen   uint32
	stamp []uint32
	first []*Node // first hop from the origin toward each visited node
	queue []*Node // visited nodes in BFS order
	nbs   []*Node // the neighbours of the node being expanded
}

// begin starts a search over a network of n nodes from origin.
func (s *search) begin(n int, origin *Node) {
	for len(s.stamp) < n {
		s.stamp = append(s.stamp, 0)
		s.first = append(s.first, nil)
	}
	s.gen++
	if s.gen == 0 { // wrapped: no stale stamp may equal the new generation
		clear(s.stamp)
		s.gen = 1
	}
	s.queue = s.queue[:0]
	s.visit(origin)
}

// seen reports whether the current search has visited n.
func (s *search) seen(n *Node) bool { return s.stamp[n.index] == s.gen }

// visit marks n visited and queues it for expansion.
func (s *search) visit(n *Node) {
	s.stamp[n.index] = s.gen
	s.queue = append(s.queue, n)
}

// Route is the point-to-point search: the first hop and the hop count of a
// minimum-hop path from a to b over m whose relays — every node strictly
// between a and b — satisfy relay. The BFS expands neighbours in ID order,
// so among equally short paths it picks the one a breadth-first walk in
// ID order meets first. a == b is reached in 0 hops with no next hop. The
// search takes nw.mu once and allocates nothing.
func (nw *Network) Route(a, b NodeID, m radio.Medium, relay Relay) (next *Node, hops int, ok bool) {
	if a == b {
		return nil, 0, true
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	na, nb, ok := nw.pairLocked(a, b)
	if !ok || !validMedium(m) {
		return nil, 0, false
	}
	// A direct link answers at once, and exactly: level 1 of the BFS
	// expands a's neighbours, b among them, and the destination is accepted
	// whatever relay says, so the walk would return b after 1 hop.
	if nw.linkedLocked(na, nb, m) {
		return nb, 1, true
	}
	s := &nw.search
	s.begin(len(nw.nodeList), na)
	for level, lo := 1, 0; lo < len(s.queue); level++ {
		hi := len(s.queue)
		for i := lo; i < hi; i++ {
			cur := s.queue[i]
			s.nbs = nw.neighborsLocked(cur, m, s.nbs[:0])
			for _, o := range s.nbs {
				if s.seen(o) {
					continue
				}
				hop := s.first[cur.index]
				if cur == na {
					hop = o
				}
				if o == nb {
					return hop, level, true
				}
				if relay != nil && !relay(o.index) {
					continue
				}
				s.visit(o)
				s.first[o.index] = hop
			}
		}
		lo = hi
	}
	return nil, 0, false
}

// Within is the sweep: it appends to out, in BFS order and with its hop
// distance, every node satisfying relay that a BFS from origin over m
// reaches within maxHops (0 = unbounded) through such nodes. The origin is
// not listed. The sweep takes nw.mu once and allocates nothing beyond
// growing out.
func (nw *Network) Within(origin NodeID, m radio.Medium, maxHops int, relay Relay, out []Reach) []Reach {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	no := nw.nodes[origin]
	if no == nil || !validMedium(m) {
		return out
	}
	s := &nw.search
	s.begin(len(nw.nodeList), no)
	for level, lo := 1, 0; lo < len(s.queue) && (maxHops <= 0 || level <= maxHops); level++ {
		hi := len(s.queue)
		for i := lo; i < hi; i++ {
			s.nbs = nw.neighborsLocked(s.queue[i], m, s.nbs[:0])
			for _, o := range s.nbs {
				if s.seen(o) || (relay != nil && !relay(o.index)) {
					continue
				}
				s.visit(o)
				out = append(out, Reach{Node: o, Hops: level})
			}
		}
		lo = hi
	}
	return out
}

// Send schedules delivery of a message after the given latency. The link is
// checked both at send time and at delivery time; a link or node failure in
// between drops the message silently (as radio losses do), incrementing the
// drop counter. Send-time validation runs in one critical section. The
// delivery's ordering key comes from the sender's lane (whose sequential
// code makes it deterministic) and it executes in the receiver's lane
// (whose state the handler touches); on an unsharded network both are
// GlobalLane.
func (nw *Network) Send(msg Message, latency time.Duration) error {
	nw.mu.Lock()
	from := nw.nodes[msg.From]
	if from == nil {
		nw.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, msg.From)
	}
	if msg.From == msg.To {
		nw.mu.Unlock()
		return ErrSelfDelivery
	}
	if from.down.Load() {
		nw.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNodeDown, msg.From)
	}
	if !from.RadioOn(msg.Medium) {
		nw.mu.Unlock()
		return fmt.Errorf("%w: %s %s", ErrRadioOff, msg.From, msg.Medium)
	}
	to := nw.nodes[msg.To]
	if to == nil || !nw.linkedLocked(from, to, msg.Medium) {
		nw.mu.Unlock()
		return fmt.Errorf("%w: %s→%s over %s", ErrNotLinked, msg.From, msg.To, msg.Medium)
	}
	if nw.faultDelay.Load() > 0 {
		latency += nw.extraDelayLocked(msg.From, msg.To, msg.Medium)
	}
	f := nw.frameLocked()
	nw.mu.Unlock()
	f.msg = msg
	f.msg.SentAt = nw.clock.Now()
	f.from, f.to = from, to
	if fc := nw.frames.Load(); fc != nil {
		fc.sent[msg.Medium].Inc()
	}
	nw.clock.AfterFrom(from.lane, to.lane, latency, f.run)
	return nil
}

// maxSpareFrames caps the frame free list, as the scheduler caps its event
// free list, so a burst of sends cannot pin unbounded memory.
const maxSpareFrames = 1 << 15

// frameLocked takes a frame from the free list or makes one; nw.mu must be
// held.
func (nw *Network) frameLocked() *frame {
	if n := len(nw.spare); n > 0 {
		f := nw.spare[n-1]
		nw.spare[n-1] = nil
		nw.spare = nw.spare[:n-1]
		return f
	}
	f := &frame{nw: nw}
	f.run = f.deliver
	return f
}

// deliver is a frame's run callback. It copies the message and endpoints
// out, then re-checks the link and returns the frame to the free list in
// one critical section, so the handler runs on its own copy while the
// frame may already carry another send. Nodes are never removed, so the
// endpoints Send resolved are still the nodes the IDs name.
func (f *frame) deliver() {
	nw, msg, from, to := f.nw, f.msg, f.from, f.to
	lost := nw.lossDrop(msg.From, msg.To, msg.Medium)
	nw.mu.Lock()
	linked := !lost && nw.linkedLocked(from, to, msg.Medium)
	f.msg, f.from, f.to = Message{}, nil, nil // the free list must not pin payloads
	if len(nw.spare) < maxSpareFrames {
		nw.spare = append(nw.spare, f)
	}
	nw.mu.Unlock()
	if !linked {
		nw.countDrop(msg.Medium)
		return
	}
	h, ok := to.handler(msg.Kind)
	if !ok {
		nw.countDrop(msg.Medium)
		return
	}
	nw.delivers.Add(1)
	if fc := nw.frames.Load(); fc != nil {
		fc.recvd[msg.Medium].Inc()
	}
	h(msg)
}

// countDrop accounts one dropped frame globally and per medium.
func (nw *Network) countDrop(m radio.Medium) {
	nw.dropped.Add(1)
	if fc := nw.frames.Load(); fc != nil {
		fc.lost[m].Inc()
	}
}

// Stats returns cumulative delivered and dropped message counts.
func (nw *Network) Stats() (delivered, dropped int) {
	return int(nw.delivers.Load()), int(nw.dropped.Load())
}

// StartMobility begins integrating node velocities every interval.
func (nw *Network) StartMobility(interval time.Duration) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.mobility != nil {
		return
	}
	dt := interval.Seconds()
	nw.mobility = nw.clock.Every(interval, func() { nw.integrate(dt) })
}

// integrate is one mobility tick: it advances every moving node by dt
// seconds of its velocity. The tick walks the sorted node list under one
// lock, skips stationary nodes and migrates only the grid cells that
// actually change — no full-grid rebuild, and no allocation once the grids
// are warm.
func (nw *Network) integrate(dt float64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, n := range nw.nodeList {
		vx, vy := n.velocity()
		if vx == 0 && vy == 0 {
			continue
		}
		p := n.position()
		p.X += vx * dt
		p.Y += vy * dt
		n.storePosition(p)
		nw.moveLocked(n, p)
	}
}

// moveLocked migrates n to the cell covering p in every active grid; nw.mu
// must be held.
func (nw *Network) moveLocked(n *Node, p Position) {
	for m := range nw.media {
		if g := nw.media[m].grid; g != nil {
			g.move(n, p)
		}
	}
}

// StopMobility halts the mobility ticker.
func (nw *Network) StopMobility() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.mobility != nil {
		nw.mobility.Stop()
		nw.mobility = nil
	}
}
