// Package runtime deploys the gossip protocols as real concurrent
// processes: one goroutine per node, communicating through a pluggable
// Transport. This is the "production" face of the library — the simulator
// (internal/sim) measures round complexity deterministically, while this
// package runs the same RLNC exchange over channels or real sockets, with
// payloads, decoding, and graceful shutdown.
//
// Four transports ship with the package: ChanTransport (in-process, used
// by examples and tests), TCPTransport and UDPTransport (wire-framed
// frames over loopback or a real network, see internal/wire), and
// ChaosTransport (latency, partitions, corruption and i.i.d. loss
// injected around any of the others).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"algossip/internal/core"
	"algossip/internal/wire"
)

// Envelope is the wire message: one coded packet plus exchange metadata.
// It is defined in internal/wire — the codec package owns the layout —
// and aliased here so transport users need not import wire.
type Envelope = wire.Envelope

// EnvelopeKind distinguishes wire message types.
type EnvelopeKind = wire.Kind

const (
	// EnvelopePacket carries one RLNC coded packet (the default).
	EnvelopePacket = wire.KindPacket
	// EnvelopeAnnounce is a spanning-tree broadcast message: "I am part of
	// the tree; adopt me as your parent if you have none" (distributed
	// TAG's Phase 1).
	EnvelopeAnnounce = wire.KindAnnounce
)

// Typed transport errors. Wrapped with context at return sites; match
// with errors.Is.
var (
	// ErrTransportClosed reports an operation on a closed transport.
	ErrTransportClosed = errors.New("runtime: transport closed")
	// ErrUnknownNode reports a Send to a node the transport cannot route
	// to (not registered and no declared peer address).
	ErrUnknownNode = errors.New("runtime: unknown node")
	// ErrBackpressure reports an envelope dropped because a bounded inbox
	// or send queue was full. Gossip is loss-tolerant: callers on the hot
	// path treat it as a counted drop, not a failure.
	ErrBackpressure = errors.New("runtime: dropped on backpressure")
)

// Transport moves envelopes between nodes. Implementations must be safe
// for concurrent use.
type Transport interface {
	// Register allocates the inbox for node id. It must be called once per
	// node before Send targets it.
	Register(id core.NodeID) (<-chan Envelope, error)
	// Send delivers env to node to. Delivery may be asynchronous and may
	// be dropped under backpressure (reported as ErrBackpressure after
	// counting the drop); Send must not block past ctx.
	Send(ctx context.Context, to core.NodeID, env Envelope) error
	// Stats snapshots the transport's send/drop/redial counters.
	Stats() TransportStats
	// Close releases all resources; subsequent Sends fail.
	Close() error
}

// NodeStats counts one destination's traffic as seen by a sender.
type NodeStats struct {
	// Sent counts envelopes handed to the underlying medium.
	Sent uint64
	// Dropped counts envelopes discarded before delivery (full inbox or
	// send queue, injected loss, undialable peer).
	Dropped uint64
	// Redials counts connection re-establishment attempts after the
	// first dial (broken connections and backoff retries).
	Redials uint64
}

// TransportStats is a point-in-time snapshot of a transport's counters,
// totalled and broken down per destination node.
type TransportStats struct {
	Total   NodeStats
	PerNode map[core.NodeID]NodeStats
}

// counters is the shared per-destination counter set behind every
// Transport.Stats implementation.
type counters struct {
	mu  sync.Mutex
	per map[core.NodeID]*NodeStats
}

func newCounters() *counters {
	return &counters{per: make(map[core.NodeID]*NodeStats)}
}

func (c *counters) node(id core.NodeID) *NodeStats {
	ns, ok := c.per[id]
	if !ok {
		ns = &NodeStats{}
		c.per[id] = ns
	}
	return ns
}

func (c *counters) sent(id core.NodeID) {
	c.mu.Lock()
	c.node(id).Sent++
	c.mu.Unlock()
}

func (c *counters) dropped(id core.NodeID) {
	c.mu.Lock()
	c.node(id).Dropped++
	c.mu.Unlock()
}

func (c *counters) redial(id core.NodeID) {
	c.mu.Lock()
	c.node(id).Redials++
	c.mu.Unlock()
}

func (c *counters) snapshot() TransportStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := TransportStats{PerNode: make(map[core.NodeID]NodeStats, len(c.per))}
	for id, ns := range c.per {
		s.PerNode[id] = *ns
		s.Total.Sent += ns.Sent
		s.Total.Dropped += ns.Dropped
		s.Total.Redials += ns.Redials
	}
	return s
}

// inboxSize buffers bursts without unbounded growth; gossip tolerates drops
// but we prefer backpressure-free small buffers.
const inboxSize = 256

// ChanTransport is an in-process Transport backed by buffered channels.
// The zero value is not usable; construct with NewChanTransport.
type ChanTransport struct {
	mu     sync.RWMutex
	boxes  map[core.NodeID]chan Envelope
	closed bool
	stats  *counters
}

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport returns an empty in-process transport.
func NewChanTransport() *ChanTransport {
	return &ChanTransport{
		boxes: make(map[core.NodeID]chan Envelope),
		stats: newCounters(),
	}
}

// Register implements Transport.
func (t *ChanTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrTransportClosed
	}
	if _, ok := t.boxes[id]; ok {
		return nil, fmt.Errorf("runtime: node %d already registered", id)
	}
	ch := make(chan Envelope, inboxSize)
	t.boxes[id] = ch
	return ch, nil
}

// Send implements Transport. When the receiver's inbox is full the
// envelope is dropped, the drop is counted, and ErrBackpressure is
// returned — gossip is loss-tolerant by design, and unhelpful packets are
// redundant anyway.
func (t *ChanTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ErrTransportClosed
	}
	ch, ok := t.boxes[to]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	select {
	case ch <- env:
		t.stats.sent(to)
		return nil
	default:
		t.stats.dropped(to)
		return fmt.Errorf("%w: inbox of node %d full", ErrBackpressure, to)
	}
}

// Stats implements Transport.
func (t *ChanTransport) Stats() TransportStats { return t.stats.snapshot() }

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, ch := range t.boxes {
		close(ch)
	}
	return nil
}
