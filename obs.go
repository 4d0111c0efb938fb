package rdmc

import (
	"io"

	"rdmc/internal/obs"
)

// Observer collects a deployment's metrics and structured events: counters
// and latency/size histograms in a registry, and a bounded ring of
// per-protocol-event records exportable in Chrome trace format (load the
// output of WriteChromeTrace into chrome://tracing or Perfetto).
//
// Attach one via TCPConfig.Observer or SimConfig.Observer before building
// the deployment. One Observer may be shared by several nodes — counters
// aggregate and every event carries its node id — which is exactly what a
// single-process cluster (NewSimCluster, local testing) wants. Collection is
// lock-cheap (atomics plus one mutex-guarded ring append per event) and a
// nil Observer costs the instrumented paths nothing but a pointer test.
type Observer struct {
	o *obs.Obs
}

// NewObserver builds an observer whose event ring holds ringCapacity events
// (the oldest are overwritten); zero or negative selects 262144.
func NewObserver(ringCapacity int) *Observer {
	return &Observer{o: obs.New(ringCapacity)}
}

// MetricsJSON renders a point-in-time snapshot of every counter and
// histogram as JSON.
func (ob *Observer) MetricsJSON() ([]byte, error) {
	return ob.o.Registry().MarshalJSON()
}

// Publish registers the metrics registry as an expvar variable under name,
// so a tcpnic deployment serving net/http's /debug/vars exposes a live
// snapshot. Publishing a name again re-points it at this observer's
// registry: the last publisher wins.
func (ob *Observer) Publish(name string) { ob.o.Registry().Publish(name) }

// WriteChromeTrace dumps the event ring's current contents in Chrome trace
// format. Send/receive post-completion pairs become duration slices; other
// events become instants.
func (ob *Observer) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, ob.o.Ring().Snapshot())
}

// EventCount returns how many events have been recorded in total, including
// any the bounded ring has already overwritten.
func (ob *Observer) EventCount() uint64 { return ob.o.Ring().Total() }

// sink unwraps the internal handle (nil-safe) for deployment wiring.
func (ob *Observer) sink() *obs.Obs {
	if ob == nil {
		return nil
	}
	return ob.o
}
