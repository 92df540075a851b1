package runtime

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/wire"
)

// maxDatagram is the largest frame UDPTransport will put in one datagram
// (IPv4 UDP payload ceiling, minus slack for headers).
const maxDatagram = 65000

// UDPTransport carries one wire frame per UDP datagram. Each registered
// node gets its own packet socket; all Sends share one unbound send
// socket. UDP's own loss model stacks naturally under the injected loss
// of ChaosTransport — a dropped datagram is indistinguishable from an
// injected drop, which is exactly the deployment regime the coded
// protocol is built for.
type UDPTransport struct {
	sendTimeout time.Duration

	mu       sync.Mutex
	peers    map[core.NodeID]string
	addrs    map[core.NodeID]string
	resolved map[core.NodeID]*net.UDPAddr
	conns    map[core.NodeID]net.PacketConn
	boxes    map[core.NodeID]chan Envelope
	closed   bool

	send  net.PacketConn
	stats *counters
	wg    sync.WaitGroup
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport returns a UDP transport; nodes listen on loopback ports
// assigned by the kernel unless SetPeers declared an address for them.
func NewUDPTransport() (*UDPTransport, error) {
	send, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("runtime: udp send socket: %w", err)
	}
	return &UDPTransport{
		sendTimeout: 2 * time.Second,
		peers:       make(map[core.NodeID]string),
		addrs:       make(map[core.NodeID]string),
		resolved:    make(map[core.NodeID]*net.UDPAddr),
		conns:       make(map[core.NodeID]net.PacketConn),
		boxes:       make(map[core.NodeID]chan Envelope),
		send:        send,
		stats:       newCounters(),
	}, nil
}

// SetPeers declares node → address routes, exactly like TCPTransport's.
func (t *UDPTransport) SetPeers(peers map[core.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, addr := range peers {
		t.peers[id] = addr
		delete(t.resolved, id)
	}
}

// AddPeer declares a single node → address route.
func (t *UDPTransport) AddPeer(id core.NodeID, addr string) {
	t.SetPeers(map[core.NodeID]string{id: addr})
}

// Register implements Transport: it binds the node's packet socket and
// starts a read loop decoding one frame per datagram. Malformed datagrams
// are screened and counted, never fatal.
func (t *UDPTransport) Register(id core.NodeID) (<-chan Envelope, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrTransportClosed
	}
	if _, ok := t.boxes[id]; ok {
		return nil, fmt.Errorf("runtime: node %d already registered", id)
	}
	bind := "127.0.0.1:0"
	if a, ok := t.peers[id]; ok {
		bind = a
	}
	pc, err := net.ListenPacket("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("runtime: udp listen for node %d: %w", id, err)
	}
	ch := make(chan Envelope, inboxSize)
	t.conns[id] = pc
	t.addrs[id] = pc.LocalAddr().String()
	t.boxes[id] = ch

	t.wg.Add(1)
	go t.readLoop(pc)
	return ch, nil
}

func (t *UDPTransport) readLoop(pc net.PacketConn) {
	defer t.wg.Done()
	buf := make([]byte, maxDatagram+64)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		to, env, _, err := wire.DecodeFrame(buf[:n])
		if err != nil {
			continue // screened: torn or hostile datagram
		}
		t.mu.Lock()
		ch, ok := t.boxes[to]
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if !ok {
			t.stats.dropped(to)
			continue
		}
		select {
		case ch <- env:
		default:
			t.stats.dropped(to)
		}
	}
}

// Addr returns the bound address of a registered node.
func (t *UDPTransport) Addr(id core.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.addrs[id]
	return a, ok
}

// resolve maps a destination to a UDP address, caching the resolution.
func (t *UDPTransport) resolve(to core.NodeID) (*net.UDPAddr, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ua, ok := t.resolved[to]; ok {
		return ua, nil
	}
	addr, ok := t.addrs[to]
	if !ok {
		addr, ok = t.peers[to]
	}
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("runtime: resolve node %d (%s): %w", to, addr, err)
	}
	t.resolved[to] = ua
	return ua, nil
}

// Send implements Transport: one frame, one datagram, fire-and-forget.
func (t *UDPTransport) Send(ctx context.Context, to core.NodeID, env Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrTransportClosed
	}
	t.mu.Unlock()
	if wire.FrameLen(&env) > maxDatagram {
		return fmt.Errorf("runtime: frame of %d bytes exceeds one datagram (%d)", wire.FrameLen(&env), maxDatagram)
	}
	ua, err := t.resolve(to)
	if err != nil {
		return err
	}
	frame, err := wire.AppendFrame(nil, to, &env)
	if err != nil {
		return err
	}
	_ = t.send.SetWriteDeadline(time.Now().Add(t.sendTimeout))
	if _, err := t.send.WriteTo(frame, ua); err != nil {
		t.stats.dropped(to)
		return fmt.Errorf("runtime: udp send to node %d: %w", to, err)
	}
	t.stats.sent(to)
	return nil
}

// Stats implements Transport.
func (t *UDPTransport) Stats() TransportStats { return t.stats.snapshot() }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, pc := range t.conns {
		_ = pc.Close()
	}
	_ = t.send.Close()
	boxes := t.boxes
	t.mu.Unlock()

	t.wg.Wait()
	for _, ch := range boxes {
		close(ch)
	}
	return nil
}
