package sm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"contory/internal/audit"
	"contory/internal/draw"
	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// msgKindSM is the simnet message kind carrying a migrating SM.
const msgKindSM = "sm-migrate"

// Errors returned by the SM platform.
var (
	ErrNoRuntime     = errors.New("sm: node has no SM runtime")
	ErrAdmission     = errors.New("sm: admission manager rejected SM")
	ErrFinderTimeout = errors.New("sm: finder timed out")
	ErrNotParticipnt = errors.New("sm: node does not expose the contory tag")
)

// Admission configures the per-node admission manager, which performs
// admission control and prevents excessive use of node resources by
// incoming SMs.
type Admission struct {
	// MaxResident caps concurrently resident SMs (0 = default 32).
	MaxResident int
	// MaxHopCnt rejects SMs that have travelled too far (0 = default 16).
	MaxHopCnt int
}

func (a Admission) maxResident() int {
	if a.MaxResident <= 0 {
		return 32
	}
	return a.MaxResident
}

func (a Admission) maxHopCnt() int {
	if a.MaxHopCnt <= 0 {
		return 16
	}
	return a.MaxHopCnt
}

// Message is a migrating Smart Message: code identified by CodeID (the code
// brick, cached by the code cache), data bricks, and execution control
// state (hop counter, visit plan, collected results).
type Message struct {
	ID     string
	CodeID string
	Origin simnet.NodeID
	HopCnt int
	// Data bricks: mobile data explicitly identified in the program.
	Data map[string]any
}

// Result is one value collected by an SM-FINDER at a provider node.
type Result struct {
	Node  simnet.NodeID
	Value any
	// HopCnt is the hop distance travelled when the value was collected;
	// the receiver discards results with HopCnt > numHops (§5.2).
	HopCnt int
	// At is the virtual time of collection.
	At time.Time
}

// Platform owns the SM runtimes of all participating nodes and keys their
// migration latencies. One Platform per simulated testbed.
type Platform struct {
	net  *simnet.Network
	seed uint64 // keys every hop-latency draw

	// runtimes is the runtime index, addressed by simnet node index. Route
	// searches ask it about every node they expand, possibly from many
	// lanes at once, so reads take no lock.
	runtimes runtimeTable

	mu      sync.Mutex
	perNode map[simnet.NodeID]int // per-origin SM counters
	code    map[string]CodeBrick
	finders map[string]func([]Result, error)

	// aud is the runtime invariant auditor (nil = auditing off): every
	// resident SM moves the per-node sm.resident balance, which must
	// return to zero when all migrations complete.
	aud atomic.Pointer[audit.Auditor]
}

// NewPlatform returns an SM platform over the given network with the
// built-in SM-FINDER code brick registered; seed keys its hop latencies.
func NewPlatform(nw *simnet.Network, seed int64) *Platform {
	p := &Platform{
		net:     nw,
		seed:    uint64(seed),
		perNode: make(map[simnet.NodeID]int),
		code:    make(map[string]CodeBrick),
	}
	p.code[finderCodeID] = func(rt *Runtime, m *Message) { p.finderStep(rt, m) }
	return p
}

// Clock returns the platform's shared virtual clock.
func (p *Platform) Clock() *vclock.Simulator { return p.net.Clock() }

// SetAudit attaches the runtime invariant auditor: admitted SMs move the
// per-node sm.resident balance until released. Nil-safe; safe to call
// before or between runs.
func (p *Platform) SetAudit(a *audit.Auditor) { p.aud.Store(a) }

// auditResident moves one node's sm.resident balance by delta.
func (p *Platform) auditResident(id simnet.NodeID, delta int64) {
	a := p.aud.Load()
	if a == nil {
		return
	}
	a.Add(p.net.ClockFor(id).Now(), string(id), "sm.resident", delta)
}

// ClockFor returns the scheduling clock for a node: its lane handle when
// the network is sharded, the shared simulator otherwise.
func (p *Platform) ClockFor(id simnet.NodeID) vclock.Clock { return p.net.ClockFor(id) }

// Install creates the SM runtime on a node and exposes the participation
// tag, joining the Contory ad hoc network.
func (p *Platform) Install(id simnet.NodeID, adm Admission) (*Runtime, error) {
	node := p.net.Node(id)
	if node == nil {
		return nil, fmt.Errorf("sm: install: %w: %s", simnet.ErrUnknownNode, id)
	}
	rt := &Runtime{
		platform:  p,
		node:      node,
		tags:      NewTagSpace(p.net.ClockFor(id)),
		admission: adm,
		codeCache: make(map[string]bool),
	}
	if err := rt.tags.Create(Tag{Name: ParticipationTag, Owner: "sm"}); err != nil {
		return nil, fmt.Errorf("sm: participation tag: %w", err)
	}
	rt.participating.Store(true)
	node.Handle(msgKindSM, rt.onArrive)
	p.mu.Lock()
	p.runtimes.store(node.Index(), rt)
	p.mu.Unlock()
	return rt, nil
}

// Runtime returns the runtime installed on a node, or nil.
func (p *Platform) Runtime(id simnet.NodeID) *Runtime {
	if n := p.net.Node(id); n != nil {
		return p.runtimes.at(n.Index())
	}
	return nil
}

// relays reports whether the node at a simnet index runs an SM runtime
// that exposes the participation tag: only such nodes forward SMs (§5.2).
// It is the Relay of every route search, which asks it of each node it
// expands under the network's lock, so it reads the runtime table and the
// flag and nothing else. The flags change only during set-up and in
// scripted churn, which runs as global barrier events, so no search on any
// lane sees a flag change mid-walk.
func (p *Platform) relays(index int32) bool {
	rt := p.runtimes.at(index)
	return rt != nil && rt.participating.Load()
}

// runtimeTable maps simnet node indices to runtimes. Reads are lock-free:
// slots are atomic, and a full table is replaced by one of twice the size,
// never resized in place, so installs cost amortized O(1). Stores must be
// serialised (Install holds p.mu).
type runtimeTable struct {
	slots atomic.Pointer[[]atomic.Pointer[Runtime]]
}

func (t *runtimeTable) at(index int32) *Runtime {
	if s := t.slots.Load(); s != nil && int(index) < len(*s) {
		return (*s)[index].Load()
	}
	return nil
}

func (t *runtimeTable) store(index int32, rt *Runtime) {
	s := t.slots.Load()
	if s == nil || int(index) >= len(*s) {
		size := 64
		if s != nil {
			size = 2 * len(*s)
		}
		size = max(size, int(index)+1)
		grown := make([]atomic.Pointer[Runtime], size)
		if s != nil {
			for i := range *s {
				grown[i].Store((*s)[i].Load())
			}
		}
		t.slots.Store(&grown)
		s = &grown
	}
	(*s)[index].Store(rt)
}

// nextMsgID allocates a unique SM identifier ("to disambiguate between
// multiple messages, a unique identifier is associated with each query and
// with each result"). IDs are per-origin counters: only the origin's lane
// launches its SMs, so an ID never depends on cross-lane scheduling, and
// IDs key the hop-latency draws.
func (p *Platform) nextMsgID(origin simnet.NodeID) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.perNode[origin]++
	return fmt.Sprintf("sm-%s-%d", origin, p.perNode[origin])
}

// Runtime is the per-node SM runtime system: tag space, admission manager,
// code cache and scheduler (execution is dispatched on the shared virtual
// clock).
type Runtime struct {
	platform  *Platform
	node      *simnet.Node
	tags      *TagSpace
	admission Admission

	// participating mirrors the participation tag: set by Install and
	// Join, cleared by Leave.
	participating atomic.Bool

	mu        sync.Mutex
	resident  int
	codeCache map[string]bool
	accepted  int
	rejected  int
	finders   int // SM-FINDERs launched here and still running
}

// Tags returns the node's tag space.
func (rt *Runtime) Tags() *TagSpace { return rt.tags }

// Node returns the underlying simnet node.
func (rt *Runtime) Node() *simnet.Node { return rt.node }

// Stats returns how many SMs the admission manager accepted and rejected.
func (rt *Runtime) Stats() (accepted, rejected int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.accepted, rt.rejected
}

// Leave withdraws the node from the Contory ad hoc network by deleting the
// participation tag; Join re-adds it.
func (rt *Runtime) Leave() {
	rt.tags.Delete(ParticipationTag)
	rt.participating.Store(false)
}

// Join re-exposes the participation tag.
func (rt *Runtime) Join() {
	rt.tags.Update(Tag{Name: ParticipationTag, Owner: "sm"})
	rt.participating.Store(true)
}

// Participating reports whether the node is part of the SM ad hoc network.
func (rt *Runtime) Participating() bool { return rt.participating.Load() }

// admit runs admission control on an arriving SM.
func (rt *Runtime) admit(m *Message) error {
	rt.mu.Lock()
	if m.HopCnt > rt.admission.maxHopCnt() {
		rt.rejected++
		rt.mu.Unlock()
		return fmt.Errorf("%w: hopCnt %d exceeds cap", ErrAdmission, m.HopCnt)
	}
	if rt.resident >= rt.admission.maxResident() {
		rt.rejected++
		n := rt.resident
		rt.mu.Unlock()
		return fmt.Errorf("%w: %d resident SMs", ErrAdmission, n)
	}
	rt.accepted++
	rt.resident++
	rt.mu.Unlock()
	rt.platform.auditResident(rt.node.ID(), 1)
	return nil
}

func (rt *Runtime) release() {
	rt.mu.Lock()
	rt.resident--
	rt.mu.Unlock()
	rt.platform.auditResident(rt.node.ID(), -1)
}

// cacheCode records a code brick in the node's code cache and reports
// whether it was already present (a hit skips part of the code transfer on
// future migrations).
func (rt *Runtime) cacheCode(codeID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	hit := rt.codeCache[codeID]
	rt.codeCache[codeID] = true
	return hit
}

// onArrive handles an SM delivered to this node.
func (rt *Runtime) onArrive(msg simnet.Message) {
	m, ok := msg.Payload.(*Message)
	if !ok {
		return
	}
	if err := rt.admit(m); err != nil {
		return // rejected SMs vanish; the finder's timeout covers the loss
	}
	defer rt.release()
	rt.cacheCode(m.CodeID)
	rt.platform.execute(rt, m)
}

// hopLatency samples the one-way cost of one SM migration. Per DESIGN.md,
// each traversed hop costs half the calibrated per-hop round-trip cost, and
// journeys departing from or arriving at the finder's origin carry half the
// fixed cost each, so a j-hop query round trip totals fixed + j·perHop —
// exactly Table 1's 761 ms (1 hop) and 1422 ms (2 hops) in steady state.
// The steady state assumes the receiver's code cache holds the (frequently
// executed) finder code brick; a cache miss must additionally transfer and
// deserialize the code, adding a share of the serialization component.
//
// The draw is keyed on (platform seed, message ID, hop count), so a hop's
// latency is a pure function of the SM's identity, whichever lane draws it.
func (p *Platform) hopLatency(m *Message, departOrigin, arriveOrigin, codeCached bool) time.Duration {
	w := radio.KeyedWiFi(draw.Key(p.seed, draw.HashID(m.ID), uint64(m.HopCnt)))
	half := w.PerHopLatency() / 2
	d := w.HopLatency(false) / 2 // jittered per-hop half-cost
	if d <= 0 {
		d = half
	}
	if departOrigin {
		d += radio.WiFiFixedLatency / 2
	}
	if arriveOrigin {
		d += radio.WiFiFixedLatency / 2
	}
	if !codeCached {
		// Cold code cache: the code brick travels with the SM and is
		// deserialized on arrival.
		d += time.Duration(radio.SMFracSerialize / 3 * float64(d))
	}
	return d
}

// migrate ships an SM one hop and accounts WiFi power on both endpoints for
// the transfer duration. When span is non-nil an "sm.hop" child covers the
// transfer, ending at the arrival instant on the destination's lane.
func (p *Platform) migrate(m *Message, span *tracing.Span, from, to simnet.NodeID, departOrigin, arriveOrigin bool) error {
	toRt := p.Runtime(to)
	cached := false
	if toRt != nil {
		toRt.mu.Lock()
		cached = toRt.codeCache[m.CodeID]
		toRt.mu.Unlock()
	}
	d := p.hopLatency(m, departOrigin, arriveOrigin, cached)
	m.HopCnt++
	var hop *tracing.Span
	if span != nil {
		var tl *energy.Timeline
		if n := p.net.Node(to); n != nil {
			tl = n.Timeline()
		}
		hop = span.ChildAt("sm.hop", string(to), tl)
		hop.SetAttr("from", string(from))
		hop.SetAttr("to", string(to))
		hop.SetAttrInt("hopCnt", int64(m.HopCnt))
		if !cached {
			hop.SetAttr("codeCache", "miss")
		}
	}
	err := p.net.Send(simnet.Message{
		From:    from,
		To:      to,
		Medium:  radio.MediumWiFi,
		Kind:    msgKindSM,
		Payload: m,
		Bytes:   smWireBytes(m),
	}, d)
	if err != nil {
		hop.SetAttr("error", err.Error())
		hop.End()
		return fmt.Errorf("sm: migrate %s→%s: %w", from, to, err)
	}
	if hop != nil {
		// End the hop at the arrival instant, on the destination's lane so
		// sharded runs keep the same virtual end time as single-lane runs.
		p.net.ClockFor(to).After(d, hop.End)
	}
	// Both endpoints keep their WiFi radio active for the transfer — except
	// the SM's origin, whose radio is already held connected for the whole
	// operation by LaunchFinder (avoiding double counting).
	for _, id := range []simnet.NodeID{from, to} {
		if id == m.Origin {
			continue
		}
		if n := p.net.Node(id); n != nil {
			n.Timeline().AddWindow("sm-hop", energy.Milliwatts(radio.WiFiConnectedPower), d)
		}
	}
	return nil
}

// smWireBytes estimates the serialized SM size: control state plus data
// bricks (queries are 205 B; collected items add their wire size).
func smWireBytes(m *Message) int {
	size := 64 // code id + control state
	for _, v := range m.Data {
		switch vv := v.(type) {
		case int:
			size += 8
		case string:
			size += len(vv)
		default:
			size += 100
		}
	}
	return size
}
