package contory

import (
	"contory/internal/audit"
	"contory/internal/core"
	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/provider"
	"contory/internal/qos"
	"contory/internal/query"
	"contory/internal/repo"
	"contory/internal/timeline"
)

// Context data model (§4.1 of the paper).
type (
	// Item is one context item: type, value, timestamp, lifetime, source
	// and quality metadata.
	Item = cxt.Item
	// Metadata carries the quality attributes usable in WHERE clauses.
	Metadata = cxt.Metadata
	// Source identifies what produced an item.
	Source = cxt.Source
	// Fix is a GPS position value for location items.
	Fix = cxt.Fix
	// Type is a context category.
	Type = cxt.Type
)

// Context types from the CxtVocabulary.
const (
	TypeLocation    = cxt.TypeLocation
	TypeSpeed       = cxt.TypeSpeed
	TypeTemperature = cxt.TypeTemperature
	TypeWind        = cxt.TypeWind
	TypeHumidity    = cxt.TypeHumidity
	TypePressure    = cxt.TypePressure
	TypeWeather     = cxt.TypeWeather
	TypeLight       = cxt.TypeLight
	TypeNoise       = cxt.TypeNoise
	TypeActivity    = cxt.TypeActivity
)

// Query language (§4.2).
type (
	// Query is a parsed context query.
	Query = query.Query
	// QuerySource is the parsed FROM clause.
	QuerySource = query.Source
)

// ParseQuery parses a context query in the SELECT/FROM/WHERE/FRESHNESS/
// DURATION/EVERY/EVENT template syntax.
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// MustParseQuery is ParseQuery that panics on error; for constant query
// text in examples and tests.
func MustParseQuery(src string) *Query { return query.MustParse(src) }

// MergeQueries applies the §4.3 clause-wise merging rules, returning a
// query whose results cover both inputs.
func MergeQueries(a, b *Query) (*Query, error) { return query.Merge(a, b) }

// Middleware core (§4.3–4.4).
type (
	// Client is the application interface: receiveCxtItem, informError
	// and makeDecision.
	Client = core.Client
	// Factory is the ContextFactory: the per-device middleware endpoint.
	Factory = core.Factory
	// Device bundles a phone's references, monitor, repository and access
	// controller.
	Device = core.Device
	// Mechanism identifies a provisioning mechanism.
	Mechanism = core.Mechanism
	// SwitchEvent records one dynamic strategy switch.
	SwitchEvent = core.SwitchEvent
	// Subscription is the handle returned by ProcessCxtQuery: the query id
	// plus methods to inspect the serving mechanism, read delivery stats and
	// cancel the query.
	Subscription = core.Subscription
	// SubscriptionStats describes a query's delivery state on the shared
	// provisioning plane: items delivered, answers served from the cache,
	// and whether the query shares a live provider stream.
	SubscriptionStats = core.SubscriptionStats
	// Option configures a Factory at construction time.
	Option = core.Option
	// RetryPolicy is a request retry/timeout/backoff posture, applied
	// uniformly across the remote references via WithRetryPolicy.
	RetryPolicy = core.RetryPolicy
	// Repository is the read-only view of a device's context repository
	// returned by Factory.Repository: applications inspect cached context
	// (Latest/Recent/Fresh/Types) without being able to mutate the store.
	Repository = repo.Reader
)

// Factory construction options.
var (
	// WithMerging enables or disables query aggregation (default on).
	WithMerging = core.WithMerging
	// WithFailover enables or disables dynamic strategy switching
	// (default on).
	WithFailover = core.WithFailover
	// WithPreferBTOneHop makes one-hop ad hoc queries prefer Bluetooth.
	WithPreferBTOneHop = core.WithPreferBTOneHop
	// WithMetrics shares a metrics registry with the factory.
	WithMetrics = core.WithMetrics
	// WithRetryPolicy applies one retry/timeout/backoff posture across the
	// Bluetooth and WiFi references.
	WithRetryPolicy = core.WithRetryPolicy
	// WithAnswerCache enables the answer cache: queries satisfiable by
	// stored context are served with zero provider work.
	WithAnswerCache = core.WithAnswerCache
	// WithCacheTTL bounds cache staleness for types without lifetime-derived
	// TTLs.
	WithCacheTTL = core.WithCacheTTL
	// WithQoS enables the QoS provisioning plane: per-client admission
	// control, deadline/priority-aware scheduling of deferred queries, and
	// deterministic overload shedding by measured energy cost.
	WithQoS = core.WithQoS
	// WithAudit attaches a runtime invariant auditor: the factory's
	// lifecycle, slot, refcount, timer and accounting transitions are
	// continuously checked against the plane's conservation laws.
	WithAudit = core.WithAudit
)

// Runtime invariant auditing (the conservation-law checker verified
// continuously during fleet runs).
type (
	// Auditor is the vclock-stamped runtime invariant checker shared across
	// factories via WithAudit; nil disables auditing at zero cost.
	Auditor = audit.Auditor
	// AuditViolation is one detected conservation-law breach.
	AuditViolation = audit.Violation
	// AuditReport summarizes an auditor: checks performed, live timers and
	// violations in deterministic vclock order.
	AuditReport = audit.Report
)

// NewAuditor returns an empty runtime invariant auditor.
func NewAuditor() *Auditor { return audit.New() }

// QoS provisioning plane (admission control, scheduling, overload
// shedding).
type (
	// QoSConfig configures the QoS plane passed to WithQoS.
	QoSConfig = qos.Config
	// QoSClass is a scheduling priority class (interactive, standard,
	// bulk); QoSAuto derives the class from query attributes.
	QoSClass = qos.Class
)

// QoS scheduling classes.
const (
	QoSAuto        = qos.ClassAuto
	QoSInteractive = qos.ClassInteractive
	QoSStandard    = qos.ClassStandard
	QoSBulk        = qos.ClassBulk
)

// ErrQoSRejected is wrapped into ProcessCxtQuery errors when admission
// control turns a query away; match with errors.Is.
var ErrQoSRejected = qos.ErrRejected

// NewFactory wires a ContextFactory onto a device.
func NewFactory(dev *Device, opts ...Option) *Factory {
	return core.NewFactory(dev, opts...)
}

// Observability (middleware-wide metrics and query-lifecycle events).
type (
	// MetricsRegistry is a named set of counters, gauges, histograms and a
	// bounded query-lifecycle event ring.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a deterministic point-in-time view of a registry.
	MetricsSnapshot = metrics.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry, for sharing across
// factories via WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Flight recorder (periodic metric timelines, SLO evaluation and burn-rate
// alerting). Arm it world-wide with WorldConfig.Timeline so one window
// stream covers the whole testbed.
type (
	// TimelineConfig configures the flight recorder: its sampling
	// interval and objectives. The window ring (512 windows), the alert
	// log (256 alerts) and the burn-rate gate (a violating window fires
	// when half the evaluated windows of the last six violate) are fixed.
	TimelineConfig = timeline.Config
	// TimelineSLO is one declarative objective ("p99_first_item_ms<5000").
	TimelineSLO = timeline.SLO
	// TimelineRecorder samples a registry into delta-windows and evaluates
	// objectives; read it with its Report method after the run.
	TimelineRecorder = timeline.Recorder
	// TimelineReport is the recorder outcome: retained windows, per-SLO
	// worst-window table and the vclock-stamped alert log.
	TimelineReport = timeline.Report
	// TimelineAlert is one fired burn-rate alert with cause attribution.
	TimelineAlert = timeline.Alert
)

// ParseSLOList parses a comma-separated objective list in the -slo flag
// syntax ("p99_first_item_ms<5000,cache_hit_ratio>0.5").
func ParseSLOList(list string) ([]TimelineSLO, error) { return timeline.ParseSLOList(list) }

// Provisioning mechanisms. MechanismCache marks queries served from the
// answer cache with zero provider work.
const (
	MechanismLocal = core.MechanismLocal
	MechanismAdHoc = core.MechanismAdHoc
	MechanismInfra = core.MechanismInfra
	MechanismCache = core.MechanismCache
	// MechanismPending marks queries parked in the QoS admission queue,
	// waiting for a token or a free provisioning slot.
	MechanismPending = core.MechanismPending
)

// Publishing (§4.3 CxtPublisher).
type (
	// PublishOptions configures a context item publication.
	PublishOptions = provider.PublishOptions
	// Transport selects BT or WiFi for ad hoc operations.
	Transport = provider.Transport
	// AccessMode is public or authenticated item access.
	AccessMode = provider.AccessMode
)

// Transports and access modes.
const (
	TransportBT         = provider.TransportBT
	TransportWiFi       = provider.TransportWiFi
	PublicAccess        = provider.PublicAccess
	AuthenticatedAccess = provider.AuthenticatedAccess
)

// ClientFuncs adapts plain functions to the Client interface; nil fields
// get sensible defaults (errors dropped, decisions granted). ID and
// Priority feed the QoS plane when it is enabled: clients sharing an ID
// share one admission token bucket (empty = the "default" bucket), and
// Priority pins the scheduling class (QoSAuto derives it per query).
type ClientFuncs struct {
	OnItem     func(Item)
	OnError    func(string)
	OnDecision func(string) bool
	ID         string
	Priority   QoSClass
}

var (
	_ Client              = ClientFuncs{}
	_ core.ClientIdentity = ClientFuncs{}
	_ core.ClientPriority = ClientFuncs{}
)

// ClientID implements the QoS plane's ClientIdentity extension.
func (c ClientFuncs) ClientID() string { return c.ID }

// QoSClass implements the QoS plane's ClientPriority extension.
func (c ClientFuncs) QoSClass() QoSClass { return c.Priority }

// ReceiveCxtItem implements Client.
func (c ClientFuncs) ReceiveCxtItem(it Item) {
	if c.OnItem != nil {
		c.OnItem(it)
	}
}

// InformError implements Client.
func (c ClientFuncs) InformError(msg string) {
	if c.OnError != nil {
		c.OnError(msg)
	}
}

// MakeDecision implements Client.
func (c ClientFuncs) MakeDecision(msg string) bool {
	if c.OnDecision == nil {
		return true
	}
	return c.OnDecision(msg)
}
