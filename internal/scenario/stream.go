package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
)

// ClosedLoop is the At value of closed-loop events: the write is issued
// when an outstanding slot frees, not at an absolute time.
const ClosedLoop = -1

// Event is one compiled write: issue an object of Size bytes to the member
// nodes of Group (Group[0] is the root/sender).
type Event struct {
	// Seq is the event's position in the stream.
	Seq int `json:"seq"`
	// Tenant names the workload class ("" in single-tenant scenarios).
	Tenant string `json:"tenant,omitempty"`
	// At is the issue time in virtual seconds, or ClosedLoop (-1).
	At float64 `json:"at"`
	// Size is the object size in bytes.
	Size int `json:"size"`
	// Group is the sorted member list with any fixed roots first.
	Group []int `json:"group"`
}

// Stream is a compiled scenario: the full event sequence plus the config
// that produced it. Compiling the same config twice yields byte-identical
// streams — that determinism is what the golden harness pins.
type Stream struct {
	Config Config
	Events []Event
}

// tenantModels is one tenant's resolved samplers.
type tenantModels struct {
	name   string
	weight float64
	sizes  SizeSampler
	groups GroupSampler
}

// Compile materializes the scenario's event stream. Every draw comes from
// one seeded rng in a fixed per-event order — arrival, tenant, size, group
// — with degenerate draws skipped entirely (closed-loop arrivals and
// single-tenant scenarios consume nothing), so a closed-loop, single-tenant
// config such as Cosmos draws only sizes and groups.
func Compile(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var tenants []tenantModels
	var totalWeight float64
	build := func(name string, weight float64, sc SizeConfig, gc GroupConfig) error {
		sizes, err := NewSizeSampler(sc)
		if err != nil {
			return err
		}
		groups, err := NewGroupSampler(gc)
		if err != nil {
			return err
		}
		tenants = append(tenants, tenantModels{name: name, weight: weight, sizes: sizes, groups: groups})
		totalWeight += weight
		return nil
	}
	if len(cfg.Tenants) == 0 {
		if err := build("", 1, cfg.Sizes, cfg.Groups); err != nil {
			return nil, err
		}
	}
	for _, t := range cfg.Tenants {
		sc, gc := cfg.Sizes, cfg.Groups
		if t.Sizes != nil {
			sc = *t.Sizes
		}
		if t.Groups != nil {
			gc = *t.Groups
		}
		if err := build(t.Name, t.Weight, sc, gc); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", t.Name, err)
		}
	}

	var clock float64
	events := make([]Event, cfg.Writes)
	for i := range events {
		at := float64(ClosedLoop)
		switch cfg.Arrival.Kind {
		case ArrivalPoisson:
			clock += rng.ExpFloat64() / cfg.Arrival.RatePerSec
			at = clock
		case ArrivalPaced:
			at = float64(i) * cfg.Arrival.SpacingSec
		}
		t := &tenants[0]
		if len(tenants) > 1 {
			x := rng.Float64() * totalWeight
			for j := range tenants {
				if x -= tenants[j].weight; x < 0 {
					t = &tenants[j]
					break
				}
			}
		}
		size := t.sizes.Sample(rng)
		group := t.groups.Sample(rng, nil)
		events[i] = Event{
			Seq:    i,
			Tenant: t.name,
			At:     at,
			Size:   size,
			Group:  append([]int(nil), group...),
		}
	}
	return &Stream{Config: cfg, Events: events}, nil
}

// Concurrency returns the closed-loop slot count (minimum 1).
func (s *Stream) Concurrency() int {
	if s.Config.Arrival.Kind == ArrivalClosed && s.Config.Arrival.Concurrency > 1 {
		return s.Config.Arrival.Concurrency
	}
	if s.Config.Arrival.Kind != ArrivalClosed {
		return len(s.Events)
	}
	return 1
}

// MarshalEvents renders the event sequence as canonical JSON lines — the
// byte representation determinism tests and golden digests compare.
func (s *Stream) MarshalEvents() ([]byte, error) {
	var out []byte
	for i := range s.Events {
		line, err := json.Marshal(&s.Events[i])
		if err != nil {
			return nil, fmt.Errorf("scenario %s: marshal event %d: %w", s.Config.Name, i, err)
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out, nil
}

// SHA256 digests the canonical event encoding — a compact cross-machine
// pin for "this config still compiles to exactly this workload".
func (s *Stream) SHA256() (string, error) {
	data, err := s.MarshalEvents()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
