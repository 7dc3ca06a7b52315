// Package infra implements the external context infrastructure of the
// paper: a remote context repository reachable over UMTS through the Fuego
// event layer, plus the two DYNAMOS sailing services of §6.2 —
// WeatherWatcher's region-scoped weather store and the RegattaClassifier.
//
// Phones publish context updates (location, weather observations) as
// events; the infrastructure stores complete logs, tracks entities, and
// answers on-demand context queries (getCxtItem) including region- and
// entity-scoped ones.
package infra

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"contory/internal/cxt"
	"contory/internal/fuego"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// Channel names phones publish on.
const (
	// ChannelLocation carries location updates of entities.
	ChannelLocation = "location"
	// ChannelWeather carries weather observations (temperature, wind, …).
	ChannelWeather = "weather"
)

// ErrNoData reports that the store has nothing matching a query.
var ErrNoData = errors.New("infra: no matching context data")

// stored is one archived context item with provenance.
type stored struct {
	item  cxt.Item
	owner simnet.NodeID
	pos   cxt.Fix
	hasPo bool
}

// Infrastructure is the remote context service: repository, entity tracker
// and query endpoint.
type Infrastructure struct {
	clock  vclock.Clock
	server *fuego.Server

	mu sync.Mutex
	// items is the archived log, a ring of capacity entries: it grows by
	// append until full, then each store overwrites the oldest entry, at
	// head, and advances head.
	items    []stored
	head     int
	byEntity map[string]cxt.Fix // entity (node id) → last known position
	capacity int
	regatta  *Regatta
}

// Config configures an Infrastructure.
type Config struct {
	// Network and NodeID locate the broker node (created here).
	Network *simnet.Network
	NodeID  simnet.NodeID
	// UMTS is the radio model used for downlink latencies.
	UMTS *radio.UMTS
	// Capacity bounds the archived log (0 = 4096 items). The log is a ring
	// of Capacity entries: once full, each store overwrites the oldest.
	Capacity int
}

// New creates the infrastructure node, its event broker, and the standard
// request handlers.
func New(cfg Config) (*Infrastructure, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("infra: nil network")
	}
	if cfg.UMTS == nil {
		cfg.UMTS = radio.NewUMTS(9001)
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if _, err := cfg.Network.AddNode(cfg.NodeID, simnet.Position{}); err != nil {
		return nil, fmt.Errorf("infra: node: %w", err)
	}
	srv, err := fuego.NewServer(cfg.Network, cfg.NodeID, cfg.UMTS)
	if err != nil {
		return nil, fmt.Errorf("infra: broker: %w", err)
	}
	inf := &Infrastructure{
		clock:    cfg.Network.ClockFor(cfg.NodeID),
		server:   srv,
		byEntity: make(map[string]cxt.Fix),
		capacity: cfg.Capacity,
	}
	srv.HandleRequest(provider.InfraOpGetItem, inf.handleGet)
	for _, ch := range []string{"storeCxtItem", ChannelLocation, ChannelWeather} {
		srv.HandleChannel(ch, inf.storeFrom(ch))
	}
	return inf, nil
}

// Server exposes the underlying event broker (for subscriptions and extra
// handlers).
func (inf *Infrastructure) Server() *fuego.Server { return inf.server }

// ID returns the infrastructure's node id.
func (inf *Infrastructure) ID() simnet.NodeID { return inf.server.ID() }

// AttachRegatta installs a RegattaClassifier service.
func (inf *Infrastructure) AttachRegatta(r *Regatta) {
	inf.mu.Lock()
	defer inf.mu.Unlock()
	inf.regatta = r
}

// storeFrom returns the consumer of one publish channel: it archives each
// item and forwards it to the subscribers of the channel its type names,
// skipping the publisher, so an EVENT query on temperature hears a report
// published on the weather channel. An item whose type is the channel it
// arrived on was already fanned out by the broker and is not sent again.
func (inf *Infrastructure) storeFrom(channel string) func(simnet.NodeID, any) {
	return func(from simnet.NodeID, payload any) {
		inf.handleStore(from, payload)
		if it, ok := payload.(cxt.Item); ok && string(it.Type) != channel {
			inf.server.Notify(string(it.Type), from, payload)
		}
	}
}

// handleStore archives one published context item and updates the entity
// tracker (and the regatta service, if attached).
func (inf *Infrastructure) handleStore(from simnet.NodeID, payload any) {
	it, ok := payload.(cxt.Item)
	if !ok {
		return
	}
	inf.mu.Lock()
	entry := stored{item: it, owner: from}
	if fix, isFix := it.Value.(cxt.Fix); isFix {
		inf.byEntity[string(from)] = fix
		entry.pos, entry.hasPo = fix, true
	} else if pos, known := inf.byEntity[string(from)]; known {
		// Non-positional observations inherit the publisher's last
		// reported position (how WeatherWatcher scopes observations).
		entry.pos, entry.hasPo = pos, true
	}
	if len(inf.items) < inf.capacity {
		inf.items = append(inf.items, entry)
	} else {
		inf.items[inf.head] = entry
		inf.head = (inf.head + 1) % inf.capacity
	}
	regatta := inf.regatta
	inf.mu.Unlock()

	if regatta != nil && it.Type == cxt.TypeLocation {
		if fix, isFix := it.Value.(cxt.Fix); isFix {
			regatta.Observe(string(from), fix, it.Timestamp)
		}
	}
}

// Stored returns how many items the repository holds.
func (inf *Infrastructure) Stored() int {
	inf.mu.Lock()
	defer inf.mu.Unlock()
	return len(inf.items)
}

// EntityPosition returns an entity's last known position.
func (inf *Infrastructure) EntityPosition(entity string) (cxt.Fix, bool) {
	inf.mu.Lock()
	defer inf.mu.Unlock()
	fix, ok := inf.byEntity[entity]
	return fix, ok
}

// handleGet answers an on-demand context query: newest matching items
// first, honouring type, freshness, entity and region scoping.
func (inf *Infrastructure) handleGet(r fuego.Request) (any, error) {
	iq, ok := r.Payload.(provider.InfraQuery)
	if !ok {
		return nil, fmt.Errorf("infra: bad query payload %T", r.Payload)
	}
	now := inf.clock.Now()
	max := iq.MaxItems
	if max <= 0 {
		max = 1
	}
	inf.mu.Lock()
	defer inf.mu.Unlock()
	var out []cxt.Item
	n := len(inf.items)
	for k := n - 1; k >= 0 && len(out) < max; k-- {
		s := &inf.items[(inf.head+k)%n]
		if s.item.Type != iq.Select {
			continue
		}
		if !s.item.FreshEnough(now, iq.Freshness) || s.item.Expired(now) {
			continue
		}
		if iq.Entity != "" && string(s.owner) != iq.Entity {
			continue
		}
		if iq.Region != nil {
			if !s.hasPo || !inRegion(s.pos, *iq.Region) {
				continue
			}
		}
		out = append(out, s.item)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoData, iq.Select)
	}
	return out, nil
}

// inRegion tests a fix against a circular region expressed in the same
// coordinate space (X=lat, Y=lon, Radius in degrees).
func inRegion(fix cxt.Fix, r query.Region) bool {
	dx, dy := fix.Lat-r.X, fix.Lon-r.Y
	return dx*dx+dy*dy <= r.Radius*r.Radius
}

// Checkpoint is a virtual regatta checkpoint: boats reaching within Radius
// of (Lat, Lon) clear it.
type Checkpoint struct {
	Lat, Lon float64
	Radius   float64
}

// Standing is one boat's classification entry.
type Standing struct {
	Boat        string
	Checkpoints int
	// LastAt is when the boat cleared its latest checkpoint (ties break
	// on earlier times).
	LastAt time.Time
	// AvgSpeedKn is the mean reported speed (competition statistics).
	AvgSpeedKn float64
}

// Regatta is the RegattaClassifier service (§6.2): virtual checkpoints are
// arranged along the route; each time a boat reaches one, the
// infrastructure updates the classification and statistics.
type Regatta struct {
	mu          sync.Mutex
	checkpoints []Checkpoint
	progress    map[string]*boatProgress
	onUpdate    func([]Standing)
}

type boatProgress struct {
	next     int
	lastAt   time.Time
	speedSum float64
	fixes    int
}

// NewRegatta returns a Regatta over the given checkpoint course.
func NewRegatta(course []Checkpoint) *Regatta {
	cps := make([]Checkpoint, len(course))
	copy(cps, course)
	return &Regatta{
		checkpoints: cps,
		progress:    make(map[string]*boatProgress),
	}
}

// OnUpdate registers a callback fired with the new classification whenever
// a boat clears a checkpoint.
func (r *Regatta) OnUpdate(f func([]Standing)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onUpdate = f
}

// Observe processes one boat location report.
func (r *Regatta) Observe(boat string, fix cxt.Fix, at time.Time) {
	r.mu.Lock()
	bp := r.progress[boat]
	if bp == nil {
		bp = &boatProgress{}
		r.progress[boat] = bp
	}
	bp.speedSum += fix.SpeedKn
	bp.fixes++
	cleared := false
	for bp.next < len(r.checkpoints) {
		cp := r.checkpoints[bp.next]
		dx, dy := fix.Lat-cp.Lat, fix.Lon-cp.Lon
		if dx*dx+dy*dy > cp.Radius*cp.Radius {
			break
		}
		bp.next++
		bp.lastAt = at
		cleared = true
	}
	var cb func([]Standing)
	var standings []Standing
	if cleared && r.onUpdate != nil {
		cb = r.onUpdate
		standings = r.classificationLocked()
	}
	r.mu.Unlock()
	if cb != nil {
		cb(standings)
	}
}

// Classification returns the current standings: most checkpoints first,
// earlier clearing time breaking ties.
func (r *Regatta) Classification() []Standing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.classificationLocked()
}

func (r *Regatta) classificationLocked() []Standing {
	out := make([]Standing, 0, len(r.progress))
	for boat, bp := range r.progress {
		s := Standing{Boat: boat, Checkpoints: bp.next, LastAt: bp.lastAt}
		if bp.fixes > 0 {
			s.AvgSpeedKn = bp.speedSum / float64(bp.fixes)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Checkpoints != out[j].Checkpoints {
			return out[i].Checkpoints > out[j].Checkpoints
		}
		if !out[i].LastAt.Equal(out[j].LastAt) {
			return out[i].LastAt.Before(out[j].LastAt)
		}
		return out[i].Boat < out[j].Boat
	})
	return out
}

// Leader returns the current winner, if any boat has progressed.
func (r *Regatta) Leader() (Standing, bool) {
	cls := r.Classification()
	if len(cls) == 0 || cls[0].Checkpoints == 0 {
		return Standing{}, false
	}
	return cls[0], true
}
