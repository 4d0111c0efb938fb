package rdmc_test

import (
	"bytes"
	"encoding/json"
	"expvar"
	"sync"
	"testing"
	"time"

	"rdmc"
)

// metricsSnapshot mirrors the JSON shape of Observer.MetricsJSON.
type metricsSnapshot struct {
	Counters   map[string]uint64          `json:"counters"`
	Histograms map[string]json.RawMessage `json:"histograms"`
}

// chromeTrace mirrors the Chrome trace envelope.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		PID  int     `json:"pid"`
	} `json:"traceEvents"`
}

func TestObserverSimCluster(t *testing.T) {
	ob := rdmc.NewObserver(0)
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 3, Seed: 1, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 1, 2}
	var groups []*rdmc.Group
	for i := 0; i < 3; i++ {
		g, err := cluster.Node(i).CreateGroup(5, members, rdmc.GroupConfig{BlockSize: 128 << 10}, rdmc.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	const msgs = 2
	for i := 0; i < msgs; i++ {
		if err := groups[0].SendSized(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Run()

	data, err := ob.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	// Every layer must have reported: engine deliveries (one per member per
	// message), NIC posts, and at least one batch-size observation.
	if got, want := snap.Counters["core.delivered"], uint64(msgs*len(members)); got != want {
		t.Errorf("core.delivered = %d, want %d", got, want)
	}
	for _, name := range []string{"core.blocks_sent", "core.blocks_recv", "core.ctrl_tx", "core.ctrl_rx", "nic.posts", "nic.completions"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q never incremented; counters = %v", name, snap.Counters)
		}
	}
	for _, name := range []string{"core.batch_run", "core.msg_bytes"} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("histogram %q missing from snapshot", name)
		}
	}

	if ob.EventCount() == 0 {
		t.Fatal("event ring recorded nothing")
	}
	var buf bytes.Buffer
	if err := ob.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var slices, instants int
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if slices == 0 || instants == 0 {
		t.Errorf("trace has %d slices and %d instants; want both nonzero (total %d events)",
			slices, instants, len(trace.TraceEvents))
	}
}

func TestObserverTCPClusterAndExpvar(t *testing.T) {
	ob := rdmc.NewObserver(1 << 12)
	nodes, err := rdmc.NewLocalCluster(2, rdmc.WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()

	members := []int{0, 1}
	var wg sync.WaitGroup
	wg.Add(2)
	var groups []*rdmc.Group
	for _, n := range nodes {
		g, err := n.CreateGroup(1, members, rdmc.GroupConfig{BlockSize: 64 << 10}, rdmc.Callbacks{
			Incoming:   func(size int) []byte { return make([]byte, size) },
			Completion: func(int, []byte, int) { wg.Done() },
		})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	msg := bytes.Repeat([]byte{0xab}, 300<<10)
	if err := groups[0].Send(msg); err != nil {
		t.Fatal(err)
	}
	waitTimeout(t, &wg, 20*time.Second)

	data, err := ob.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if got, want := snap.Counters["core.delivered"], uint64(2); got != want {
		t.Errorf("core.delivered = %d, want %d", got, want)
	}
	// The mesh must have counted the prepare announcement by kind, and the
	// TCP transport must have classified every data frame as direct or
	// staged.
	if snap.Counters["mesh.tx.prepare"] == 0 || snap.Counters["mesh.rx.prepare"] == 0 {
		t.Errorf("mesh per-kind counters missing: %v", snap.Counters)
	}
	if snap.Counters["tcpnic.direct_frames"]+snap.Counters["tcpnic.staged_frames"] == 0 {
		t.Errorf("tcpnic frame counters never incremented: %v", snap.Counters)
	}

	// expvar surface: publishing makes the live registry visible through
	// the standard /debug/vars machinery.
	ob.Publish("rdmc_test_metrics")
	v := expvar.Get("rdmc_test_metrics")
	if v == nil {
		t.Fatal("expvar variable not published")
	}
	var snap2 metricsSnapshot
	if err := json.Unmarshal([]byte(v.String()), &snap2); err != nil {
		t.Fatalf("expvar snapshot is not valid JSON: %v", err)
	}
	if snap2.Counters["core.delivered"] == 0 {
		t.Error("expvar snapshot missing live counters")
	}
}

// TestObserverPublishReusedName publishes one expvar name from two
// observers: the second Publish must not panic, and the name must then read
// the second observer's registry.
func TestObserverPublishReusedName(t *testing.T) {
	const name = "rdmc_test_publish_reused"
	first, second := rdmc.NewObserver(0), rdmc.NewObserver(0)
	cluster, err := rdmc.NewSimCluster(rdmc.SimConfig{Nodes: 2, Seed: 1, Observer: second})
	if err != nil {
		t.Fatal(err)
	}
	var groups []*rdmc.Group
	for i := 0; i < 2; i++ {
		g, err := cluster.Node(i).CreateGroup(6, []int{0, 1}, rdmc.GroupConfig{BlockSize: 64 << 10}, rdmc.Callbacks{})
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	if err := groups[0].SendSized(1 << 20); err != nil {
		t.Fatal(err)
	}
	cluster.Run()

	first.Publish(name)
	second.Publish(name)
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar variable not published")
	}
	var snap metricsSnapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("expvar snapshot is not valid JSON: %v", err)
	}
	if got, want := snap.Counters["core.delivered"], uint64(2); got != want {
		t.Errorf("core.delivered through expvar = %d, want %d (the second observer's)", got, want)
	}
}
