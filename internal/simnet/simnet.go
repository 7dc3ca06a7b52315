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
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	ErrNoPath       = errors.New("simnet: no path between nodes")
	ErrRadioOff     = errors.New("simnet: radio is off")
	ErrSelfDelivery = errors.New("simnet: cannot send to self")
)

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

// maxMedium bounds the per-node radio state array; media are small ints.
const maxMedium = 8

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
	for _, g := range nw.grids {
		g.move(n.id, p)
	}
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
	if m < 0 || int(m) >= maxMedium {
		return
	}
	n.radios[m].Store(on)
}

// RadioOn reports whether the given radio is on.
func (n *Node) RadioOn(m radio.Medium) bool {
	if m < 0 || int(m) >= maxMedium {
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
// hot send/deliver paths never take the network mutex to count.
type frameCounters struct {
	sent  map[radio.Medium]*metrics.Counter
	recvd map[radio.Medium]*metrics.Counter
	lost  map[radio.Medium]*metrics.Counter
}

// dirLink is a directed link, the key of the sharded-mode loss sequence.
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
// other members, nodes outside only to other outsiders.
type partition struct {
	medium  radio.Medium
	members map[NodeID]bool
}

// Network is the simulated testbed fabric.
type Network struct {
	clock *vclock.Simulator

	// lanes > 0 shards nodes across that many vclock lanes (set once by
	// EnableSharding before any node exists, read-only afterwards).
	lanes int

	mu       sync.Mutex
	nodes    map[NodeID]*Node
	nodeList []*Node // sorted by ID; maintained incrementally by AddNode
	links    map[linkKey]bool
	adj      map[radio.Medium]map[NodeID]map[NodeID]bool // explicit-link adjacency
	failed   map[linkKey]bool
	ranges   map[radio.Medium]float64 // 0 = explicit links only
	loss     map[linkKey]float64      // per-link drop probability
	rng      *rand.Rand
	seed     int64

	// Fault-injection state (internal/chaos): active partitions, per-node
	// drop probability (degraded RSSI, provider hang at p=1) and per-node
	// extra delivery latency (slow response).
	partitions map[int]*partition
	nextPart   int
	nodeLoss   map[nodeMedium]float64
	nodeDelay  map[nodeMedium]time.Duration

	// faultLoss and faultDelay count active loss/delay entries so the
	// per-delivery fast path can skip the mutex entirely when no fault is
	// installed — the common case for every scale benchmark.
	faultLoss  atomic.Int32
	faultDelay atomic.Int32

	// grids holds a uniform spatial index per range-enabled medium (cell
	// size = the medium's range, so candidates beyond range cannot appear
	// outside the 3×3 cell neighborhood). Maintained incrementally:
	// AddNode inserts into every active grid, position changes migrate only
	// the moved node's cell, and SetRange rebuilds only its own medium.
	grids map[radio.Medium]*grid

	// candScratch is the reusable Neighbors candidate buffer (guarded by mu).
	candScratch []NodeID

	// lossSeq counts deliveries per directed link in sharded mode; the
	// hash-based loss decision is keyed on it instead of a shared rand
	// stream, whose draw order would depend on cross-lane scheduling.
	lossMu  sync.Mutex
	lossSeq map[dirLink]uint64

	dropped  atomic.Int64
	delivers atomic.Int64

	metrics *metrics.Registry
	frames  atomic.Pointer[frameCounters]

	mobility *vclock.Timer
}

// New returns an empty Network on the given simulator clock.
func New(clock *vclock.Simulator) *Network {
	return &Network{
		clock:      clock,
		nodes:      make(map[NodeID]*Node),
		links:      make(map[linkKey]bool),
		adj:        make(map[radio.Medium]map[NodeID]map[NodeID]bool),
		failed:     make(map[linkKey]bool),
		ranges:     make(map[radio.Medium]float64),
		loss:       make(map[linkKey]float64),
		rng:        rand.New(rand.NewSource(1)),
		seed:       1,
		partitions: make(map[int]*partition),
		nodeLoss:   make(map[nodeMedium]float64),
		nodeDelay:  make(map[nodeMedium]time.Duration),
		grids:      make(map[radio.Medium]*grid),
		lossSeq:    make(map[dirLink]uint64),
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
	return int32(fnv1a(string(id)) % uint64(nw.lanes))
}

// ClockFor returns the Clock a node's components must schedule through: the
// node's lane handle when sharded (keeping all of the device's callbacks on
// its shard), the simulator itself otherwise.
func (nw *Network) ClockFor(id NodeID) vclock.Clock {
	if nw.lanes <= 0 {
		return nw.clock
	}
	return nw.clock.Lane(int(nw.LaneOf(id)))
}

// fnv1a is the 64-bit FNV-1a hash (inlined to keep simnet dependency-free).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is a strong 64-bit mixer used for keyed loss decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SetMetrics attaches a metrics registry: frames sent, delivered and
// dropped are counted per medium ("simnet.frames.sent.bt", …), and the
// power timelines of all present and future nodes feed per-operation
// energy gauges into the same registry.
func (nw *Network) SetMetrics(reg *metrics.Registry) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.metrics = reg
	fc := &frameCounters{
		sent:  make(map[radio.Medium]*metrics.Counter),
		recvd: make(map[radio.Medium]*metrics.Counter),
		lost:  make(map[radio.Medium]*metrics.Counter),
	}
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

// Seed re-seeds the network's loss model for deterministic runs.
func (nw *Network) Seed(seed int64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.rng = rand.New(rand.NewSource(seed))
	nw.seed = seed
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
// without locking. In serial mode decisions come from the shared rand
// stream (draw order is the event order, which is deterministic). In
// sharded mode the shared stream's draw order would depend on cross-lane
// interleaving, so the decision is instead a keyed hash of (seed, directed
// link, per-link delivery count): each directed link's deliveries execute
// sequentially in the receiver's lane, making the count — and hence every
// decision — schedule-independent.
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
	if nw.lanes <= 0 {
		nw.mu.Lock()
		defer nw.mu.Unlock()
		return nw.rng.Float64() < p
	}
	dk := dirLink{from: a, to: b, medium: m}
	nw.lossMu.Lock()
	seq := nw.lossSeq[dk]
	nw.lossSeq[dk] = seq + 1
	nw.lossMu.Unlock()
	h := splitmix64(uint64(seed) ^ fnv1a(string(a)+"\x00"+string(b)+"\x00"+m.String()) ^ splitmix64(seq))
	return float64(h>>11)/(1<<53) < p
}

// Clock returns the network's simulator.
func (nw *Network) Clock() *vclock.Simulator { return nw.clock }

// AddNode creates a node at the given position with all radios on. When
// sharding is enabled the node's timeline and battery tick on its lane
// clock, so their periodic work stays on the node's shard. The node is
// inserted into every active spatial grid; other media's grids are
// untouched.
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
	i := sort.Search(len(nw.nodeList), func(i int) bool { return nw.nodeList[i].id >= id })
	nw.nodeList = append(nw.nodeList, nil)
	copy(nw.nodeList[i+1:], nw.nodeList[i:])
	nw.nodeList[i] = n
	for _, g := range nw.grids {
		g.insert(id, pos)
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

// Connect creates an explicit bidirectional link between a and b on medium m.
func (nw *Network) Connect(a, b NodeID, m radio.Medium) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.nodes[a] == nil || nw.nodes[b] == nil {
		return fmt.Errorf("%w: %s-%s", ErrUnknownNode, a, b)
	}
	nw.links[newLinkKey(a, b, m)] = true
	nw.adjAddLocked(m, a, b)
	nw.adjAddLocked(m, b, a)
	return nil
}

// Disconnect removes an explicit link.
func (nw *Network) Disconnect(a, b NodeID, m radio.Medium) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.links, newLinkKey(a, b, m))
	nw.adjDelLocked(m, a, b)
	nw.adjDelLocked(m, b, a)
}

func (nw *Network) adjAddLocked(m radio.Medium, from, to NodeID) {
	byNode := nw.adj[m]
	if byNode == nil {
		byNode = make(map[NodeID]map[NodeID]bool)
		nw.adj[m] = byNode
	}
	set := byNode[from]
	if set == nil {
		set = make(map[NodeID]bool)
		byNode[from] = set
	}
	set[to] = true
}

func (nw *Network) adjDelLocked(m radio.Medium, from, to NodeID) {
	if set := nw.adj[m][from]; set != nil {
		delete(set, to)
	}
}

// FailLink marks the link (explicit or range-based) as failed until
// RestoreLink is called.
func (nw *Network) FailLink(a, b NodeID, m radio.Medium) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.failed[newLinkKey(a, b, m)] = true
}

// RestoreLink clears a link failure.
func (nw *Network) RestoreLink(a, b NodeID, m radio.Medium) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.failed, newLinkKey(a, b, m))
}

// Partition splits the medium into two sides: the given members can only
// reach each other, and every other node can only reach non-members. It
// returns a handle for Heal. Multiple partitions compose (a pair must be on
// the same side of every active partition to communicate).
func (nw *Network) Partition(m radio.Medium, members ...NodeID) int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	set := make(map[NodeID]bool, len(members))
	for _, id := range members {
		set[id] = true
	}
	nw.nextPart++
	nw.partitions[nw.nextPart] = &partition{medium: m, members: set}
	return nw.nextPart
}

// Heal removes a partition previously created by Partition. Unknown handles
// are ignored.
func (nw *Network) Heal(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.partitions, id)
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
	nw.ranges[m] = metres
	if metres <= 0 {
		delete(nw.grids, m)
		return
	}
	g := newGrid(metres)
	for _, n := range nw.nodeList {
		g.insert(n.id, n.position())
	}
	nw.grids[m] = g
}

// Linked reports whether a and b can currently communicate over m.
func (nw *Network) Linked(a, b NodeID, m radio.Medium) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.linkedLocked(a, b, m)
}

func (nw *Network) linkedLocked(a, b NodeID, m radio.Medium) bool {
	na, nb := nw.nodes[a], nw.nodes[b]
	if na == nil || nb == nil || a == b {
		return false
	}
	if na.down.Load() || nb.down.Load() || !na.RadioOn(m) || !nb.RadioOn(m) {
		return false
	}
	key := newLinkKey(a, b, m)
	if nw.failed[key] {
		return false
	}
	for _, p := range nw.partitions {
		if p.medium == m && p.members[a] != p.members[b] {
			return false
		}
	}
	if nw.links[key] {
		return true
	}
	if r := nw.ranges[m]; r > 0 {
		return na.position().Distance(nb.position()) <= r
	}
	return false
}

// grid is a uniform spatial index: node IDs bucketed into square cells of
// side = the medium's range. Any pair within range is in the same or an
// adjacent cell, so a 3×3 neighborhood scan finds every range candidate
// (each still verified with the exact link predicate, so link decisions are
// identical to the brute-force scan — the grid only prunes).
//
// The index is incremental: where remembers each member's cell, and a
// position change removes the node from its old cell and inserts it into
// the new one — O(log cell) for the sorted-slice membership — instead of
// rebuilding every medium's grid on the next query. Cells stay sorted by
// NodeID so candidate enumeration is deterministic.
type grid struct {
	cell  float64
	cells map[[2]int][]NodeID
	where map[NodeID][2]int
}

func newGrid(cell float64) *grid {
	return &grid{
		cell:  cell,
		cells: make(map[[2]int][]NodeID),
		where: make(map[NodeID][2]int),
	}
}

func (g *grid) key(p Position) [2]int {
	return [2]int{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// insert adds a node that must not already be a member.
func (g *grid) insert(id NodeID, p Position) {
	k := g.key(p)
	g.cells[k] = insertSorted(g.cells[k], id)
	g.where[id] = k
}

// move migrates a member to the cell for p; a no-op when the cell is
// unchanged (the common case for small mobility steps).
func (g *grid) move(id NodeID, p Position) {
	k := g.key(p)
	old, ok := g.where[id]
	if ok && old == k {
		return
	}
	if ok {
		if rest := removeSorted(g.cells[old], id); len(rest) > 0 {
			g.cells[old] = rest
		} else {
			delete(g.cells, old)
		}
	}
	g.cells[k] = insertSorted(g.cells[k], id)
	g.where[id] = k
}

func insertSorted(s []NodeID, id NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

func removeSorted(s []NodeID, id NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		copy(s[i:], s[i+1:])
		s = s[:len(s)-1]
	}
	return s
}

// rangeCandidatesLocked appends to out the IDs of nodes that could be within
// range of n over m (superset pruned by the grid). nw.mu must be held.
func (nw *Network) rangeCandidatesLocked(n *Node, m radio.Medium, out []NodeID) []NodeID {
	g := nw.grids[m]
	if g == nil {
		return out
	}
	k := g.key(n.position())
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			out = append(out, g.cells[[2]int{k[0] + dx, k[1] + dy}]...)
		}
	}
	return out
}

// Neighbors returns the IDs of all nodes currently linked to id over m, in
// stable order. Candidates come from the explicit-link adjacency set plus
// the spatial grid (when the medium has a range), so the cost is
// O(degree + local density) instead of O(all nodes). The candidate buffer
// is recycled across calls; only the result slice is allocated.
func (nw *Network) Neighbors(id NodeID, m radio.Medium) []NodeID {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.nodes[id]
	if n == nil {
		return nil
	}
	cand := nw.candScratch[:0]
	for other := range nw.adj[m][id] {
		cand = append(cand, other)
	}
	if nw.ranges[m] > 0 {
		cand = nw.rangeCandidatesLocked(n, m, cand)
	}
	slices.Sort(cand)
	var out []NodeID
	for _, other := range cand {
		if other == id {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == other {
			continue // adjacency and grid both produced it
		}
		if nw.linkedLocked(id, other, m) {
			out = append(out, other)
		}
	}
	nw.candScratch = cand
	return out
}

// HopDistance returns the minimum hop count between a and b over m using
// BFS over the current topology, or ErrNoPath.
func (nw *Network) HopDistance(a, b NodeID, m radio.Medium) (int, error) {
	if a == b {
		return 0, nil
	}
	visited := map[NodeID]bool{a: true}
	frontier := []NodeID{a}
	hops := 0
	for len(frontier) > 0 {
		hops++
		var next []NodeID
		for _, cur := range frontier {
			for _, nb := range nw.Neighbors(cur, m) {
				if visited[nb] {
					continue
				}
				if nb == b {
					return hops, nil
				}
				visited[nb] = true
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return 0, fmt.Errorf("%w: %s→%s over %s", ErrNoPath, a, b, m)
}

// ShortestPath returns the node sequence (excluding a, including b) of a
// minimum-hop path from a to b over m.
func (nw *Network) ShortestPath(a, b NodeID, m radio.Medium) ([]NodeID, error) {
	if a == b {
		return nil, nil
	}
	prev := map[NodeID]NodeID{}
	visited := map[NodeID]bool{a: true}
	frontier := []NodeID{a}
	for len(frontier) > 0 {
		var next []NodeID
		for _, cur := range frontier {
			for _, nb := range nw.Neighbors(cur, m) {
				if visited[nb] {
					continue
				}
				visited[nb] = true
				prev[nb] = cur
				if nb == b {
					// Reconstruct.
					var path []NodeID
					for at := b; at != a; at = prev[at] {
						path = append(path, at)
					}
					// Reverse.
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path, nil
				}
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("%w: %s→%s over %s", ErrNoPath, a, b, m)
}

// Send schedules delivery of a message after the given latency. The link is
// checked both at send time and at delivery time; a link or node failure in
// between drops the message silently (as radio losses do), incrementing the
// drop counter. Send-time validation runs in one critical section.
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
	if !nw.linkedLocked(msg.From, msg.To, msg.Medium) {
		nw.mu.Unlock()
		return fmt.Errorf("%w: %s→%s over %s", ErrNotLinked, msg.From, msg.To, msg.Medium)
	}
	if nw.faultDelay.Load() > 0 {
		latency += nw.extraDelayLocked(msg.From, msg.To, msg.Medium)
	}
	nw.mu.Unlock()
	msg.SentAt = nw.clock.Now()
	if fc := nw.frames.Load(); fc != nil {
		fc.sent[msg.Medium].Inc()
	}
	if nw.lanes > 0 {
		// Ordering key from the sender's lane (whose sequential code makes
		// it deterministic), execution in the receiver's lane (whose state
		// the handler touches).
		nw.clock.AfterFrom(nw.LaneOf(msg.From), nw.LaneOf(msg.To), latency, func() { nw.deliver(msg) })
	} else {
		nw.clock.After(latency, func() { nw.deliver(msg) })
	}
	return nil
}

func (nw *Network) deliver(msg Message) {
	if nw.lossDrop(msg.From, msg.To, msg.Medium) {
		nw.countDrop(msg.Medium)
		return
	}
	nw.mu.Lock()
	to := nw.nodes[msg.To]
	linked := to != nil && nw.linkedLocked(msg.From, msg.To, msg.Medium)
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

// StartMobility begins integrating node velocities every interval. Each
// tick walks the sorted node list under one lock, skips stationary nodes,
// and migrates only the grid cells that actually change — no per-tick
// allocation and no full-grid rebuild.
func (nw *Network) StartMobility(interval time.Duration) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.mobility != nil {
		return
	}
	dt := interval.Seconds()
	nw.mobility = nw.clock.Every(interval, func() {
		nw.mu.Lock()
		for _, n := range nw.nodeList {
			vx, vy := n.velocity()
			if vx == 0 && vy == 0 {
				continue
			}
			p := n.position()
			p.X += vx * dt
			p.Y += vy * dt
			n.storePosition(p)
			for _, g := range nw.grids {
				g.move(n.id, p)
			}
		}
		nw.mu.Unlock()
	})
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
