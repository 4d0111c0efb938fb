package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// completionSlack is the residual byte count below which a flow is considered
// finished; it absorbs float64 rounding across rate recomputations.
const completionSlack = 1e-3

// Resource is a capacity-limited element of the fabric: a NIC transmit port,
// a NIC receive port, or a shared switch trunk. Concurrent flows crossing a
// resource share its capacity max-min fairly.
type Resource struct {
	name     string
	capacity float64 // bytes per second
	flows    []*Flow
	fab      *Fabric // the fabric that last routed a flow across this resource

	// Generation-stamped scratch for the fabric's traversals. A resource
	// is "marked" when its stamp equals the fabric's current pass number,
	// which replaces per-pass map insertions — the dominant cost at many
	// hundreds of nodes — with a field compare. scratchIdx is the
	// resource's slot in the reallocation working set while scratchGen is
	// current.
	scratchGen uint64
	scratchIdx int32
	visitGen   uint64

	// regIdx is the resource's position in its fabric's name-ordered
	// registry, so a small working set sorts into registry order with an
	// integer compare.
	regIdx int
}

// NewResource returns a resource with the given capacity in bytes per second.
func NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity must be positive", name))
	}
	return &Resource{name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// SetCapacity changes the capacity, immediately re-allocating the affected
// component: flows crossing the resource (and everything transitively
// sharing a resource with them) are settled — charged for progress at their
// old rates up to now — before the capacity changes, and their rates and
// completion events are then recomputed under the new allocation. Without
// the settle/reallocate pass, in-flight flows would keep stale rates until
// an unrelated flow event happened to touch their component. A resource
// carrying no flows just records the new value.
func (r *Resource) SetCapacity(c float64) {
	if c <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity must be positive", r.name))
	}
	if r.fab == nil || len(r.flows) == 0 {
		r.capacity = c
		return
	}
	f := r.fab
	comp := f.component([]*Resource{r})
	f.settle(comp)
	r.capacity = c
	f.reallocate(comp)
}

// ActiveFlows returns the number of flows currently crossing the resource.
func (r *Resource) ActiveFlows() int { return len(r.flows) }

func (r *Resource) addFlow(f *Flow) { r.flows = append(r.flows, f) }

func (r *Resource) removeFlow(f *Flow) {
	for i, g := range r.flows {
		if g == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			return
		}
	}
}

// Flow is a bulk transfer in progress across a path of resources.
type Flow struct {
	id         int64
	remaining  float64 // bytes left at lastUpdate
	rate       float64 // bytes per second under the current allocation
	path       []*Resource
	lastUpdate float64 // virtual time at which remaining was settled
	onDone     func()
	doneEv     *Event
	finished   bool

	// waterfill scratch state
	fixed    bool
	visitGen uint64 // component-traversal mark (see Resource.visitGen)

	// A cluster transfer's endpoints and outcome callback, which is what a
	// link or node failure needs to break it, and the inline backing of its
	// path (tx, slow-link override, two trunks, rx at most).
	src, dst  NodeID
	onOutcome func(Outcome)
	pathBuf   [5]*Resource
}

// Rate returns the flow's current allocated rate in bytes per second.
func (f *Flow) Rate() float64 { return f.rate }

// Fabric owns all flows and performs incremental max-min fair allocation.
// When a flow starts or finishes, only the connected component of flows that
// transitively share resources with it is re-allocated, which keeps large
// simulations (hundreds of nodes, each with an isolated sender/receiver pair)
// cheap.
type Fabric struct {
	sim    *Sim
	nextID int64

	// gen numbers the traversal passes; resources and flows stamped with
	// the current gen are "in the working set" without any map.
	gen uint64

	// allFlows is the id-ordered registry of flows the fabric has routed:
	// ids are handed out monotonically and flows append at the tail, so
	// the slice is always sorted. component() recovers id order by
	// filtering it when the component spans a good part of the fabric (the
	// trunked Apt runs: sorting alone makes rdmcbench -exp fig10b about
	// 1.5x slower) and by sorting when the component is a few flows among
	// many (sim_scale256). Finished flows linger marked until the registry
	// is half dead, then one compaction sweep drops them.
	allFlows     []*Flow
	finishedDead int

	// allResources is the name-ordered registry of resources the fabric
	// has routed across (insertion-sorted once per resource lifetime).
	// reallocate recovers the deterministic name order from it the same
	// two ways: filtering it for a large working set, sorting by each
	// resource's registry index for a small one.
	allResources []*Resource

	// Traversal and reallocate scratch, reused across calls to keep the
	// per-flow-event allocation count flat in large simulations. Safe
	// because the fabric is driven from the single-threaded event loop and
	// neither component nor reallocate reenters itself.
	resources []*Resource
	states    []resState
	prevRates []float64
	compFlows []*Flow
	compStack []*Resource
	heap      []shareEntry
}

// shareEntry is one lazy min-heap entry of the waterfill: a resource (by
// working-set index, which is name order) keyed by the fair share it offered
// when pushed. Max-min shares are monotone non-decreasing as flows fix, so a
// popped entry whose share went stale is simply re-pushed with its current
// share — the heap never has to delete.
type shareEntry struct {
	share float64
	idx   int32
}

// NewFabric returns a fabric driven by the given simulation clock.
func NewFabric(sim *Sim) *Fabric {
	return &Fabric{sim: sim}
}

// StartFlow begins transferring size bytes across path. onDone runs at the
// virtual time the last byte arrives. A zero-size flow completes after one
// event-loop tick.
func (f *Fabric) StartFlow(size float64, path []*Resource, onDone func()) *Flow {
	if len(path) == 0 {
		panic("simnet: flow path must contain at least one resource")
	}
	fl := &Flow{path: path}
	f.start(fl, size, onDone)
	return fl
}

// start routes a flow whose path is already set.
func (f *Fabric) start(fl *Flow, size float64, onDone func()) {
	fl.id = f.nextID
	fl.remaining = size
	fl.lastUpdate = f.sim.Now()
	fl.onDone = onDone
	f.nextID++
	f.allFlows = append(f.allFlows, fl)
	comp := f.component(fl.path)
	f.settle(comp)
	for _, r := range fl.path {
		if r.fab != f {
			r.fab = f
			f.registerResource(r)
		}
		r.addFlow(fl)
	}
	// The new flow has the highest id, so appending keeps id order.
	comp = append(comp, fl)
	f.compFlows = comp
	f.reallocate(comp)
}

// Cancel aborts a flow in progress (used for link/node failure injection).
// Its onDone callback never runs.
func (f *Fabric) Cancel(fl *Flow) {
	if fl.finished {
		return
	}
	if fl.doneEv != nil {
		fl.doneEv.Cancel()
	}
	comp := f.component(fl.path)
	f.settle(comp)
	// Retire only after component() has filtered the registry: compaction
	// must not drop the flow from its own component.
	f.retireFlow(fl)
	for _, r := range fl.path {
		r.removeFlow(fl)
	}
	f.reallocate(remove(comp, fl))
}

func (f *Fabric) finish(fl *Flow) {
	if fl.finished {
		return
	}
	comp := f.component(fl.path)
	f.settle(comp)
	if !f.finishable(fl) {
		// A later reallocation slowed this flow down; reschedule.
		f.reallocate(comp)
		return
	}
	f.retireFlow(fl)
	for _, r := range fl.path {
		r.removeFlow(fl)
	}
	f.reallocate(remove(comp, fl))
	fl.onDone()
}

// retireFlow marks a flow finished and compacts the id-ordered registry once
// it is mostly dead, keeping StartFlow's append-only invariant (compaction
// preserves order) and bounding registry growth over long runs.
func (f *Fabric) retireFlow(fl *Flow) {
	fl.finished = true
	f.finishedDead++
	if f.finishedDead*2 > len(f.allFlows) && len(f.allFlows) > 1024 {
		live := f.allFlows[:0]
		for _, g := range f.allFlows {
			if !g.finished {
				live = append(live, g)
			}
		}
		clear(f.allFlows[len(live):])
		f.allFlows = live
		f.finishedDead = 0
	}
}

// registerResource inserts a newly routed resource into the name-ordered
// registry. Runs once per resource lifetime, so the linear insert and
// renumbering are fine.
func (f *Fabric) registerResource(r *Resource) {
	i, _ := slices.BinarySearchFunc(f.allResources, r, func(a, b *Resource) int {
		return strings.Compare(a.name, b.name)
	})
	f.allResources = slices.Insert(f.allResources, i, r)
	for ; i < len(f.allResources); i++ {
		f.allResources[i].regIdx = i
	}
}

// sortCheaper reports whether ordering n discovered items by sorting them
// beats filtering them out of an ordered registry of size total. Both give
// the registry's order, so the choice never changes a result. The crossover
// is measured by BenchmarkOrderRecovery: at the registry sizes of the Apt
// and 256-node runs (256 to 1024 entries) the two cost the same when the
// registry is 16 to 24 times the item count, and sorting costs 2.5 to 4.5
// times the filter at 8.
func sortCheaper(n, total int) bool { return n*16 <= total }

// component gathers every flow that transitively shares a resource with the
// given path.
func (f *Fabric) component(path []*Resource) []*Flow {
	f.gen++
	gen := f.gen
	flows := f.compFlows[:0]
	stack := f.compStack[:0]
	for _, r := range path {
		if r.visitGen != gen {
			r.visitGen = gen
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fl := range r.flows {
			if fl.visitGen == gen {
				continue
			}
			fl.visitGen = gen
			flows = append(flows, fl)
			for _, rr := range fl.path {
				if rr.visitGen != gen {
					rr.visitGen = gen
					stack = append(stack, rr)
				}
			}
		}
	}
	// Recover deterministic id order: sort a component of a few flows,
	// filter the id-sorted registry for the marked flows of one that spans
	// much of the fabric, where O(total live flows) beats
	// O(component · log component).
	if n := len(flows); sortCheaper(n, len(f.allFlows)) {
		slices.SortFunc(flows, func(a, b *Flow) int { return cmp.Compare(a.id, b.id) })
	} else {
		flows = flows[:0]
		for _, fl := range f.allFlows {
			if fl.visitGen == gen {
				flows = append(flows, fl)
				if len(flows) == n {
					break
				}
			}
		}
	}
	f.compFlows = flows
	f.compStack = stack[:0]
	return flows
}

// settle charges each flow for progress made at its current rate since its
// last settlement.
func (f *Fabric) settle(flows []*Flow) {
	now := f.sim.Now()
	for _, fl := range flows {
		if dt := now - fl.lastUpdate; dt > 0 {
			fl.remaining -= fl.rate * dt
			if fl.remaining < 0 {
				fl.remaining = 0
			}
		}
		fl.lastUpdate = now
	}
}

// reallocate runs max-min waterfilling over the component and reschedules
// each member flow's completion event. Its working set (resource index,
// per-resource residual state, previous rates) lives on the Fabric and is
// reused across calls, so a steady stream of flow events allocates nothing
// here once the scratch has grown to the component size.
func (f *Fabric) reallocate(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	f.prevRates = f.prevRates[:0]
	for _, fl := range flows {
		f.prevRates = append(f.prevRates, fl.rate)
		fl.fixed = false
	}
	f.workingSet(flows)

	// Waterfill with a lazy min-heap over fair shares. Every working-set
	// resource starts with one entry; fixing a bottleneck's flows only ever
	// RAISES other resources' shares (max-min monotonicity: handing share s
	// to k of count flows leaves (cap-ks)/(count-k) ≥ s when s ≤ cap/count),
	// so a popped entry whose stored share no longer matches is stale — its
	// real share grew — and is re-pushed at the current value. A popped entry
	// that validates is the true minimum, and the (share, index) key order
	// reproduces the linear scan's first-smallest-name tie-break exactly.
	f.heap = f.heap[:0]
	for i := range f.states {
		f.heapPush(shareEntry{f.states[i].cap / float64(f.states[i].count), int32(i)})
	}
	unfixed := len(flows)
	for unfixed > 0 && len(f.heap) > 0 {
		e := f.heapPop()
		st := &f.states[e.idx]
		if st.count == 0 {
			continue
		}
		if cur := st.cap / float64(st.count); cur != e.share {
			f.heapPush(shareEntry{cur, e.idx})
			continue
		}
		share := e.share
		for _, fl := range f.resources[e.idx].flows {
			if fl.fixed {
				continue
			}
			fl.fixed = true
			fl.rate = share
			unfixed--
			for _, r := range fl.path {
				st := &f.states[r.scratchIdx]
				st.cap -= share
				if st.cap < 0 {
					st.cap = 0
				}
				st.count--
			}
		}
	}

	for i, fl := range flows {
		// A flow whose rate is unchanged keeps its completion event: the
		// settle charged it up to now at the same rate, so the absolute
		// completion time is identical. Skipping the reschedule keeps the
		// event heap free of cancelled-event churn in large simulations.
		if fl.doneEv != nil && !fl.doneEv.cancelled && sameRate(fl.rate, f.prevRates[i]) {
			continue
		}
		f.scheduleCompletion(fl)
	}
}

// workingSet loads f.resources with the resources the flows cross, numbered
// in deterministic bottleneck order, and f.states with their capacities and
// flow counts. Ties in fair share resolve by resource name, independent of
// discovery order: a small working set sorts into registry order, a large
// one is filtered out of the name-sorted registry.
func (f *Fabric) workingSet(flows []*Flow) {
	f.gen++
	gen := f.gen
	f.resources = f.resources[:0]
	for _, fl := range flows {
		for _, r := range fl.path {
			if r.scratchGen != gen {
				r.scratchGen = gen
				f.resources = append(f.resources, r)
			}
		}
	}
	if need := len(f.resources); sortCheaper(need, len(f.allResources)) {
		slices.SortFunc(f.resources, func(a, b *Resource) int { return cmp.Compare(a.regIdx, b.regIdx) })
	} else {
		f.resources = f.resources[:0]
		for _, r := range f.allResources {
			if r.scratchGen == gen {
				f.resources = append(f.resources, r)
				if len(f.resources) == need {
					break
				}
			}
		}
	}
	f.states = f.states[:0]
	for i, r := range f.resources {
		r.scratchIdx = int32(i)
		f.states = append(f.states, resState{cap: r.capacity})
	}
	for _, fl := range flows {
		for _, r := range fl.path {
			f.states[r.scratchIdx].count++
		}
	}
}

// sameRate compares rates with a relative tolerance tight enough that any
// completion-time error is absorbed by the finishable slack.
func sameRate(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-12*a
}

func (f *Fabric) scheduleCompletion(fl *Flow) {
	if fl.doneEv != nil {
		fl.doneEv.Cancel()
		fl.doneEv = nil
	}
	if fl.finished {
		return
	}
	var eta float64
	if !f.finishable(fl) {
		eta = fl.remaining / fl.rate
	}
	target := fl
	fl.doneEv = f.sim.After(eta, func() { f.finish(target) })
}

// finishable reports whether a flow's residual bytes are beyond the clock's
// ability to resolve: either inside the byte slack, or smaller than what a
// few representable virtual-time ticks can transfer at the flow's rate.
// Without the tick guard, accumulated float64 rounding can leave a residue
// that reschedules a completion for "now + less than one ULP", which never
// advances the clock and livelocks the simulation.
func (f *Fabric) finishable(fl *Flow) bool {
	if fl.remaining <= completionSlack {
		return true
	}
	tick := math.Nextafter(f.sim.now, math.Inf(1)) - f.sim.now
	return fl.remaining <= fl.rate*tick*4
}

type resState struct {
	cap   float64
	count int
}

func shareLess(a, b shareEntry) bool {
	return a.share < b.share || (a.share == b.share && a.idx < b.idx)
}

func (f *Fabric) heapPush(e shareEntry) {
	f.heap = append(f.heap, e)
	i := len(f.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !shareLess(f.heap[i], f.heap[p]) {
			break
		}
		f.heap[i], f.heap[p] = f.heap[p], f.heap[i]
		i = p
	}
}

func (f *Fabric) heapPop() shareEntry {
	top := f.heap[0]
	n := len(f.heap) - 1
	f.heap[0] = f.heap[n]
	f.heap = f.heap[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && shareLess(f.heap[l], f.heap[m]) {
			m = l
		}
		if r < n && shareLess(f.heap[r], f.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		f.heap[i], f.heap[m] = f.heap[m], f.heap[i]
		i = m
	}
	return top
}

// remove deletes fl from flows in place, keeping the order of the rest.
func remove(flows []*Flow, fl *Flow) []*Flow {
	if i := slices.Index(flows, fl); i >= 0 {
		return slices.Delete(flows, i, i+1)
	}
	return flows
}
