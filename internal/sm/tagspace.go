// Package sm re-implements the Smart Messages (SM) distributed computing
// platform the paper uses for WiFi-based distributed context provisioning
// (§5.1–5.2): a per-node tag space (shared memory addressable by names), SM
// execution with code and data bricks, execution migration with
// application-controlled content-based routing, an admission manager, and a
// code cache. The SM-FINDER of §5.2 — route a context query towards nodes
// exposing a matching tag, evaluate it there, and carry results back,
// discarding those whose hopCnt exceeds the query's numHops — is provided
// as a first-class operation.
package sm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"contory/internal/vclock"
)

// ParticipationTag is the tag a node exposes to join the Contory ad hoc
// network; SM routing only traverses nodes exposing it (§5.2).
const ParticipationTag = "contory"

// Tag is a named value in a node's tag space. Tags name nodes for
// content-based routing and carry published context items (name = context
// type, value = item value and metadata).
type Tag struct {
	Name     string
	Value    any
	Owner    string // application identifier that created the tag
	Created  time.Time
	Lifetime time.Duration // 0 = no expiry
}

// Expired reports whether the tag's lifetime has elapsed.
func (t Tag) Expired(now time.Time) bool {
	if t.Lifetime <= 0 {
		return false
	}
	return now.Sub(t.Created) > t.Lifetime
}

// Errors returned by tag-space operations.
var (
	ErrTagExists   = errors.New("sm: tag already exists")
	ErrTagNotFound = errors.New("sm: tag not found")
)

// TagSpace is the per-node shared memory of the SM runtime, addressable by
// names, used for inter-SM communication and for publishing context items.
type TagSpace struct {
	clock vclock.Clock

	mu   sync.Mutex
	tags map[string]Tag
}

// NewTagSpace returns an empty tag space.
func NewTagSpace(clock vclock.Clock) *TagSpace {
	return &TagSpace{clock: clock, tags: make(map[string]Tag)}
}

// Create adds a tag; it fails if a live tag with the same name exists.
func (ts *TagSpace) Create(tag Tag) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.expireLocked()
	if _, exists := ts.tags[tag.Name]; exists {
		return fmt.Errorf("%w: %s", ErrTagExists, tag.Name)
	}
	tag.Created = ts.clock.Now()
	ts.tags[tag.Name] = tag
	return nil
}

// Update creates or replaces a tag (the common path when republishing a
// context item of the same type).
func (ts *TagSpace) Update(tag Tag) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tag.Created = ts.clock.Now()
	ts.tags[tag.Name] = tag
}

// Read returns the live tag with the given name.
func (ts *TagSpace) Read(name string) (Tag, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.expireLocked()
	tag, ok := ts.tags[name]
	if !ok {
		return Tag{}, fmt.Errorf("%w: %s", ErrTagNotFound, name)
	}
	return tag, nil
}

// Has reports whether a live tag with the given name exists. Discovery asks
// it of every participant a finder reaches, so a miss builds no error.
func (ts *TagSpace) Has(name string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.expireLocked()
	_, ok := ts.tags[name]
	return ok
}

// Delete removes a tag by name (idempotent).
func (ts *TagSpace) Delete(name string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	delete(ts.tags, name)
}

// Names returns all live tag names in sorted order.
func (ts *TagSpace) Names() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.expireLocked()
	names := make([]string, 0, len(ts.tags))
	for n := range ts.tags {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of live tags.
func (ts *TagSpace) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.expireLocked()
	return len(ts.tags)
}

// expireLocked drops expired tags; callers hold ts.mu.
func (ts *TagSpace) expireLocked() {
	now := ts.clock.Now()
	for name, tag := range ts.tags {
		if tag.Expired(now) {
			delete(ts.tags, name)
		}
	}
}
