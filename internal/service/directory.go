// Package service is the RDMC-as-a-service layer: a membership/registry
// directory that multiplexes many named multicast groups over one cluster,
// per-tenant admission control, and weighted-fair bandwidth sharing across
// the groups contending for each NIC (WFQThrottle, plugged into
// core.GroupConfig.Throttle).
//
// The paper's evaluation runs a handful of groups; production Derecho-style
// deployments multiplex thousands of overlapping groups over the same NICs,
// and Storm's lesson is that unbounded per-connection dataplane state is
// what breaks RDMA at that scale. The service layer therefore keeps the
// dataplane untouched — groups are ordinary core/session groups — and adds
// only control-plane state: a roster of live nodes, tenants with admission
// budgets, and named group registrations whose members are drawn k-of-n from
// the live roster with a seeded generator (deterministic for simulation,
// uniform in expectation like the paper's Cosmos workload).
//
// The Directory is logically centralized, like Derecho's membership service:
// in-process deployments (the simulator, NewLocalCluster) share one instance;
// a distributed deployment would place it behind its own replicated group.
package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"rdmc/internal/core"
	"rdmc/internal/rdma"
)

// Errors returned by the admission and registry paths.
var (
	ErrUnknownTenant  = errors.New("service: unknown tenant")
	ErrTenantExists   = errors.New("service: tenant already registered")
	ErrGroupExists    = errors.New("service: group name already registered")
	ErrUnknownGroup   = errors.New("service: unknown group name")
	ErrRosterTooSmall = errors.New("service: live roster smaller than requested group")
	ErrOverloaded     = errors.New("service: tenant over admission budget")
)

// DirectoryConfig seeds the registry.
type DirectoryConfig struct {
	// Seed drives the k-of-n member draws; a fixed seed makes every draw
	// sequence reproducible.
	Seed int64
	// FirstGroupID is the first core group id the allocator hands out
	// (default 1). Each registration reserves GroupIDSpan ids so epoch
	// groups layered on a registration never collide with the next one.
	FirstGroupID uint32
	// GroupIDSpan is the id stride between registrations (default 1024,
	// leaving room for ~1k view changes per session-backed group).
	GroupIDSpan uint32
}

// Directory is the registry service: the roster of live nodes, the tenants,
// and the named groups registered against them.
type Directory struct {
	mu      sync.Mutex
	rng     *rand.Rand
	cfg     DirectoryConfig
	present map[rdma.NodeID]bool
	roster  []rdma.NodeID // sorted; rebuilt on attach/detach
	tenants map[string]*Tenant
	order   []string // tenant creation order, for deterministic iteration
	groups  map[string]GroupSpec
	nextID  uint32
}

// GroupSpec is one registered group: a stable id range and a concrete member
// list (members[0] is the root).
type GroupSpec struct {
	// ID is the base core group id reserved for this registration.
	ID core.GroupID
	// Span is how many consecutive ids (starting at ID) the registration
	// owns — session epochs burn through them one per view change.
	Span uint32
	// Tenant and Name identify the registration; names are scoped per
	// tenant ("tenantA/logs" and "tenantB/logs" coexist).
	Tenant string
	Name   string
	// Members is the resolved membership, Members[0] the root.
	Members []rdma.NodeID
}

// NewDirectory builds an empty registry.
func NewDirectory(cfg DirectoryConfig) *Directory {
	if cfg.FirstGroupID == 0 {
		cfg.FirstGroupID = 1
	}
	if cfg.GroupIDSpan == 0 {
		cfg.GroupIDSpan = 1024
	}
	return &Directory{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		cfg:     cfg,
		present: make(map[rdma.NodeID]bool),
		tenants: make(map[string]*Tenant),
		groups:  make(map[string]GroupSpec),
		nextID:  cfg.FirstGroupID,
	}
}

// Attach adds a node to the live roster (idempotent).
func (d *Directory) Attach(node rdma.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.present[node] {
		return
	}
	d.present[node] = true
	d.rebuildRosterLocked()
}

// Detach removes a node from the live roster. Groups already resolved keep
// their member lists — failure handling is the session layer's job — but new
// draws never pick the departed node.
func (d *Directory) Detach(node rdma.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.present[node] {
		return
	}
	delete(d.present, node)
	d.rebuildRosterLocked()
}

func (d *Directory) rebuildRosterLocked() {
	d.roster = d.roster[:0]
	for n := range d.present {
		d.roster = append(d.roster, n)
	}
	sort.Slice(d.roster, func(i, j int) bool { return d.roster[i] < d.roster[j] })
}

// Roster returns the live nodes in id order.
func (d *Directory) Roster() []rdma.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]rdma.NodeID(nil), d.roster...)
}

// TenantConfig is one tenant's admission budget and bandwidth share.
type TenantConfig struct {
	// Weight is the tenant's WFQ bandwidth share (default 1). The
	// directory itself only records it; callers feed it to the
	// WFQThrottle(s) guarding their NICs.
	Weight int
	// MaxInFlight caps concurrently admitted transfers (0 = unlimited).
	MaxInFlight int
	// MaxQueuedBytes is how many bytes of transfers past the in-flight cap
	// may wait in the tenant's queue. Zero queues nothing: over-cap
	// submissions are rejected outright (the reject-vs-queue policy is
	// simply whether this budget is zero).
	MaxQueuedBytes int64
}

// AddTenant registers a tenant.
func (d *Directory) AddTenant(name string, cfg TenantConfig) (*Tenant, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tenants[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, name)
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	t := &Tenant{dir: d, name: name, cfg: cfg}
	d.tenants[name] = t
	d.order = append(d.order, name)
	return t, nil
}

// Tenant returns a registered tenant handle, or nil.
func (d *Directory) Tenant(name string) *Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tenants[name]
}

// Tenants returns the tenant handles in registration order.
func (d *Directory) Tenants() []*Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Tenant, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.tenants[n])
	}
	return out
}

// NumGroups reports registered group names.
func (d *Directory) NumGroups() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.groups)
}

// Lookup resolves a registered group by tenant-scoped name.
func (d *Directory) Lookup(tenant, name string) (GroupSpec, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	gs, ok := d.groups[tenant+"/"+name]
	return gs, ok
}

// RegisterGroup registers a named group with an explicit member list and
// allocates its id range.
func (d *Directory) RegisterGroup(tenant, name string, members []rdma.NodeID) (GroupSpec, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.registerLocked(tenant, name, append([]rdma.NodeID(nil), members...))
}

// DrawGroup registers a named group whose k members are drawn uniformly from
// the live roster — the paper's Cosmos pattern (random k-of-n overlapping
// groups) as a service call. The draw is a seeded partial Fisher–Yates over
// the sorted roster, so a fixed directory seed and call order reproduce the
// same overlay.
func (d *Directory) DrawGroup(tenant, name string, k int) (GroupSpec, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k <= 0 || k > len(d.roster) {
		return GroupSpec{}, fmt.Errorf("%w: need %d of %d live nodes", ErrRosterTooSmall, k, len(d.roster))
	}
	pick := append([]rdma.NodeID(nil), d.roster...)
	for i := 0; i < k; i++ {
		j := i + d.rng.Intn(len(pick)-i)
		pick[i], pick[j] = pick[j], pick[i]
	}
	return d.registerLocked(tenant, name, pick[:k:k])
}

func (d *Directory) registerLocked(tenant, name string, members []rdma.NodeID) (GroupSpec, error) {
	if _, ok := d.tenants[tenant]; !ok {
		return GroupSpec{}, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	if len(members) == 0 {
		return GroupSpec{}, fmt.Errorf("service: group %q needs at least one member", name)
	}
	key := tenant + "/" + name
	if _, ok := d.groups[key]; ok {
		return GroupSpec{}, fmt.Errorf("%w: %s", ErrGroupExists, key)
	}
	gs := GroupSpec{
		ID:      core.GroupID(d.nextID),
		Span:    d.cfg.GroupIDSpan,
		Tenant:  tenant,
		Name:    name,
		Members: members,
	}
	d.nextID += d.cfg.GroupIDSpan
	d.groups[key] = gs
	return gs, nil
}

// TenantStats is a snapshot of one tenant's admission counters.
type TenantStats struct {
	Admitted  uint64 // transfers started (immediately or from the queue)
	Queued    uint64 // transfers that waited in the queue first
	Rejected  uint64 // transfers refused outright
	Completed uint64 // transfers finished (Done called)
	InFlight  int    // currently admitted
	QueuedNow int    // currently waiting
}

// Tenant is one tenant's admission-control state. Submit either starts the
// transfer now, parks it in the tenant's FIFO queue, or rejects it; Done
// frees the slot and starts the queue head.
type Tenant struct {
	dir  *Directory
	name string
	cfg  TenantConfig

	mu          sync.Mutex
	inFlight    int
	queued      []queuedXfer
	queuedBytes int64
	stats       TenantStats
}

type queuedXfer struct {
	bytes int64
	start func()
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Config returns the tenant's registered budget.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// Submit admits a transfer of the given size. If the tenant has a free
// in-flight slot, start runs before Submit returns. Otherwise the transfer
// queues (within MaxQueuedBytes) and start runs from a later Done, or the
// submission is rejected with ErrOverloaded. Exactly one Done is owed per
// nil return.
func (t *Tenant) Submit(bytes int64, start func()) error {
	t.mu.Lock()
	if t.cfg.MaxInFlight <= 0 || t.inFlight < t.cfg.MaxInFlight {
		t.inFlight++
		t.stats.Admitted++
		t.mu.Unlock()
		start()
		return nil
	}
	if t.queuedBytes+bytes <= t.cfg.MaxQueuedBytes {
		t.queued = append(t.queued, queuedXfer{bytes: bytes, start: start})
		t.queuedBytes += bytes
		t.stats.Queued++
		t.mu.Unlock()
		return nil
	}
	t.stats.Rejected++
	t.mu.Unlock()
	return fmt.Errorf("%w: %s (%d in flight, %d queued bytes)",
		ErrOverloaded, t.name, t.cfg.MaxInFlight, t.queuedBytes)
}

// Done releases one admitted transfer's slot and starts the queue head if
// one is waiting.
func (t *Tenant) Done() {
	t.mu.Lock()
	if t.inFlight > 0 {
		t.inFlight--
	}
	t.stats.Completed++
	var next *queuedXfer
	if len(t.queued) > 0 && (t.cfg.MaxInFlight <= 0 || t.inFlight < t.cfg.MaxInFlight) {
		q := t.queued[0]
		t.queued = t.queued[1:]
		t.queuedBytes -= q.bytes
		t.inFlight++
		t.stats.Admitted++
		next = &q
	}
	t.mu.Unlock()
	if next != nil {
		next.start()
	}
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.InFlight = t.inFlight
	s.QueuedNow = len(t.queued)
	return s
}
