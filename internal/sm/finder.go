package sm

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/tracing"
)

// CodeBrick is the executable part of a Smart Message. The runtime invokes
// it when the SM arrives at (or is launched on) a node; the brick inspects
// and mutates the SM's data bricks and asks the platform to migrate it
// onward.
type CodeBrick func(rt *Runtime, m *Message)

// finderCodeID is the code brick identifier of the built-in SM-FINDER.
const finderCodeID = "sm-finder"

// RegisterCode installs a custom code brick under the given identifier.
// The built-in SM-FINDER is pre-registered.
func (p *Platform) RegisterCode(codeID string, code CodeBrick) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.code == nil {
		p.code = make(map[string]CodeBrick)
	}
	p.code[codeID] = code
}

// execute dispatches an SM to its code brick on the current node.
func (p *Platform) execute(rt *Runtime, m *Message) {
	p.mu.Lock()
	code := p.code[m.CodeID]
	p.mu.Unlock()
	if code == nil {
		return // unknown code brick: the SM dies; timeouts cover the loss
	}
	code(rt, m)
}

// FinderSpec describes one SM-FINDER round (§5.2): route towards nodes
// exposing the desired context tag, evaluate the carried query there, and
// bring matching values back to the issuer.
type FinderSpec struct {
	// TagName is the context tag to search for (matches the query's
	// SELECT clause).
	TagName string
	// MaxNodes caps how many provider nodes to collect from (0 = all
	// discoverable).
	MaxNodes int
	// MaxHops is the query's numHops: results collected farther away are
	// discarded by the receiver.
	MaxHops int
	// Filter evaluates the query's WHERE/FRESHNESS/EVENT requirements at
	// the provider node (nil accepts every value).
	Filter func(value any) bool
	// Timeout cancels the query if no valid result arrives in time
	// (0 = a default derived from MaxHops).
	Timeout time.Duration
	// Targets optionally pins the destination nodes (entity-addressed
	// queries); when set, tag discovery is skipped.
	Targets []simnet.NodeID
	// Region optionally restricts discovery to provider nodes positioned
	// inside a circle of the simulated coordinate space (geographically
	// routed queries: "the coordinates of a region to be monitored").
	Region *RegionSpec
	// QueryBytes is the carried query size (defaults to 205 B).
	QueryBytes int
	// Span is the parent trace span of this finder round; migration hops
	// and remote executions open child spans under it. The span travels
	// with the SM inside its data brick, so remote nodes annotate the same
	// trace (nil = untraced).
	Span *tracing.Span
}

// RegionSpec is a circular region in simnet coordinates (metres).
type RegionSpec struct {
	X, Y, Radius float64
}

// contains reports whether a position falls inside the region.
func (r RegionSpec) contains(p simnet.Position) bool {
	dx, dy := p.X-r.X, p.Y-r.Y
	return dx*dx+dy*dy <= r.Radius*r.Radius
}

func (s FinderSpec) timeout() time.Duration {
	if s.Timeout > 0 {
		return s.Timeout
	}
	hops := s.MaxHops
	if hops < 1 {
		hops = 1
	}
	// Generous default: route build (≈ 2×) plus the tour itself.
	return time.Duration(4*(hops+1)) * radio.WiFiPerHopLatency
}

// finderState is the SM-FINDER's data brick.
type finderState struct {
	spec      FinderSpec
	finderID  string
	remaining []simnet.NodeID
	results   []Result
	returning bool
	departed  bool
}

// LaunchFinder injects an SM-FINDER at origin. done is invoked exactly once
// on the origin node's timeline: with the collected (hop-filtered) results,
// or with ErrFinderTimeout. The origin's WiFi radio stays connected for the
// whole operation, which is what makes WiFi provisioning cost
// 1190 mW × latency (Table 2).
func (p *Platform) LaunchFinder(origin simnet.NodeID, spec FinderSpec, done func([]Result, error)) error {
	rt := p.Runtime(origin)
	if rt == nil {
		return fmt.Errorf("%w: %s", ErrNoRuntime, origin)
	}
	if !rt.Participating() {
		return fmt.Errorf("%w: %s", ErrNotParticipnt, origin)
	}
	// The visit plan is consumed in place as the tour goes, so a pinned
	// list is copied: the caller's spec (which a retry may relaunch) keeps
	// its targets.
	targets := slices.Clone(spec.Targets)
	if len(targets) == 0 {
		targets = p.discoverTargets(origin, spec)
	}
	m := &Message{
		ID:     p.nextMsgID(origin),
		CodeID: finderCodeID,
		Origin: origin,
		Data:   map[string]any{},
	}
	st := &finderState{spec: spec, finderID: m.ID, remaining: targets}
	m.Data["state"] = st
	m.Data["queryBytes"] = queryBytesOrDefault(spec.QueryBytes)

	// Requester radio connected for the duration of the operation.
	rt.finderRadio(+1)
	completed := false
	finish := func(rs []Result, err error) {
		if completed {
			return
		}
		completed = true
		rt.finderRadio(-1)
		done(rs, err)
	}
	p.mu.Lock()
	if p.finders == nil {
		p.finders = make(map[string]func([]Result, error))
	}
	p.finders[m.ID] = finish
	p.mu.Unlock()

	// Both timers run on the origin's clock: finish touches the origin's
	// timeline and query state, so in sharded mode it must stay on the
	// origin's lane.
	p.net.ClockFor(origin).After(spec.timeout(), func() { finish(nil, ErrFinderTimeout) })

	// No reachable provider: let the timeout cancel the query, as the
	// paper specifies for finders that find nothing.
	p.net.ClockFor(origin).After(0, func() {
		if rtNow := p.Runtime(origin); rtNow != nil {
			p.finderStep(rtNow, m)
		}
	})
	return nil
}

// finderPowerState is the power state of a node's WiFi radio held connected
// for the SM-FINDERs it launched: one state per node, whatever the number
// of finders.
const finderPowerState = "wifi-finder"

// finderRadio starts (+1) or finishes (-1) one finder on the node: the
// state's level is WiFiConnectedPower per running finder. Each start and
// finish sets a new level, so it cuts the node's power at its own instant
// as a state per finder would, and the level is exact on the timeline's
// fixed-point grid, so no joule moves.
func (rt *Runtime) finderRadio(delta int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.finders += delta
	rt.node.Timeline().SetState(finderPowerState, energy.Milliwatts(rt.finders)*energy.Milliwatts(radio.WiFiConnectedPower))
}

func queryBytesOrDefault(b int) int {
	if b <= 0 {
		return radio.QueryBytes
	}
	return b
}

// discoverTargets simulates content-based routing state: participant nodes
// exposing the desired tag within MaxHops of origin, nearest first, capped
// at MaxNodes. One sweep from the origin yields every candidate's hop
// distance at once; a per-candidate path search would make fleet-scale
// discovery cost quadratic in the population. The tag and region filters
// run after the sweep has released the network's lock.
func (p *Platform) discoverTargets(origin simnet.NodeID, spec FinderSpec) []simnet.NodeID {
	buf := reachBufs.Get().(*[]simnet.Reach)
	defer reachBufs.Put(buf)
	// The sweep reaches exactly the participants around the origin, so
	// discovery stays proportional to the reachable neighbourhood.
	reach := p.net.Within(origin, radio.MediumWiFi, spec.MaxHops, p.relays, (*buf)[:0])
	cands := reach[:0]
	for _, r := range reach {
		rt := p.runtimes.at(r.Node.Index())
		if rt == nil || !rt.Tags().Has(spec.TagName) {
			continue
		}
		if spec.Region != nil && !spec.Region.contains(r.Node.Position()) {
			continue
		}
		cands = append(cands, r)
	}
	slices.SortFunc(cands, func(a, b simnet.Reach) int {
		if a.Hops != b.Hops {
			return a.Hops - b.Hops
		}
		return strings.Compare(string(a.Node.ID()), string(b.Node.ID()))
	})
	max := spec.MaxNodes
	if max <= 0 || max > len(cands) {
		max = len(cands)
	}
	out := make([]simnet.NodeID, 0, max)
	for _, c := range cands[:max] {
		out = append(out, c.Node.ID())
	}
	clear(reach) // the pool must not pin nodes
	*buf = reach[:0]
	return out
}

// reachBufs recycles discovery's sweep buffers.
var reachBufs = sync.Pool{New: func() any { return new([]simnet.Reach) }}

// route is the search every finder hop runs: the first hop and the hop
// count of a minimum-hop WiFi path from a to b whose relays participate
// (only nodes exposing the contory tag collaborate in forwarding, §5.2).
func (p *Platform) route(a, b simnet.NodeID) (next *simnet.Node, hops int, ok bool) {
	return p.net.Route(a, b, radio.MediumWiFi, p.relays)
}

// finderStep is the SM-FINDER code brick body, executed each time the SM
// lands on a node.
func (p *Platform) finderStep(rt *Runtime, m *Message) {
	st, ok := m.Data["state"].(*finderState)
	if !ok {
		return
	}
	here := rt.Node().ID()

	// Back at the issuer with results: deliver, discarding results whose
	// hopCnt exceeds numHops (§5.2).
	if here == m.Origin && st.returning {
		p.deliver(st)
		return
	}

	// Collect from a provider node — only nodes still on the visit plan,
	// so forwarding through an already-visited provider on the way home
	// does not duplicate its result.
	if here != m.Origin && containsID(st.remaining, here) {
		exec := st.spec.Span.ChildAt("sm.exec", string(here), rt.Node().Timeline())
		exec.SetAttr("tag", st.spec.TagName)
		if tag, err := rt.Tags().Read(st.spec.TagName); err == nil {
			if st.spec.Filter == nil || st.spec.Filter(tag.Value) {
				dist := 0
				if _, d, ok := p.route(m.Origin, here); ok {
					dist = d
				}
				st.results = append(st.results, Result{
					Node:   here,
					Value:  tag.Value,
					HopCnt: dist,
					At:     p.net.Clock().Now(),
				})
				exec.SetAttr("collected", "true")
			} else {
				exec.SetAttr("collected", "filtered")
			}
		} else {
			exec.SetAttr("collected", "no-tag")
		}
		exec.End()
		// Drop this node from the remaining plan.
		st.remaining = dropID(st.remaining, here)
	}

	// Choose the next destination: the nearest remaining target, else home.
	for {
		if len(st.remaining) == 0 {
			st.returning = true
			p.routeHome(rt, m, st)
			return
		}
		// The reachability test's first hop is the route: the search runs
		// on the same topology in the same event, so a second one would
		// find the same hop.
		if next, hops, ok := p.route(here, st.remaining[0]); ok {
			p.hopAlong(m, st, here, next, hops)
			return
		}
		// Unreachable (partition/mobility): skip it.
		st.remaining = st.remaining[1:]
	}
}

// routeHome migrates a returning SM one hop along the participant path to
// its origin, delivering the results once it is there.
func (p *Platform) routeHome(rt *Runtime, m *Message, st *finderState) {
	here := rt.Node().ID()
	if here == m.Origin {
		// Already there. A finder that never departed found no provider
		// to visit: per §5.2 the query is cancelled by its timeout rather
		// than answered with an empty result.
		if st.departed {
			p.deliver(st)
		}
		return
	}
	// Origin unreachable: the SM dies; the timeout cancels the query.
	if next, hops, ok := p.route(here, m.Origin); ok {
		p.hopAlong(m, st, here, next, hops)
	}
}

// hopAlong migrates the SM to next, the first hop of a route of the given
// length. A route of 0 hops means the SM is already at its destination
// and stays.
func (p *Platform) hopAlong(m *Message, st *finderState, here simnet.NodeID, next *simnet.Node, hops int) {
	if hops == 0 {
		return
	}
	departOrigin := !st.departed
	st.departed = true
	arriveOrigin := st.returning && next.ID() == m.Origin && hops == 1
	// A link that vanished between the search and the send lets the SM die.
	_ = p.migrate(m, st.spec.Span, here, next.ID(), departOrigin, arriveOrigin)
}

// deliver hands results to the registered callback, applying the hopCnt
// filter.
func (p *Platform) deliver(st *finderState) {
	p.mu.Lock()
	finish := p.finders[st.finderID]
	delete(p.finders, st.finderID)
	p.mu.Unlock()
	if finish == nil {
		return
	}
	kept := make([]Result, 0, len(st.results))
	for _, r := range st.results {
		if st.spec.MaxHops > 0 && r.HopCnt > st.spec.MaxHops {
			continue // publisher out of the range of interest
		}
		kept = append(kept, r)
	}
	finish(kept, nil)
}

func containsID(ids []simnet.NodeID, id simnet.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func dropID(ids []simnet.NodeID, id simnet.NodeID) []simnet.NodeID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}
