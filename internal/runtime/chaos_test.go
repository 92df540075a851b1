package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// TestChaosLatencyDelays: with a pure latency profile every envelope
// arrives, but not before its stamped deadline.
func TestChaosLatencyDelays(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{Latency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
		if el := time.Since(start); el < 25*time.Millisecond {
			t.Fatalf("envelope arrived after %v, before the 30ms latency floor", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed envelope never arrived")
	}
}

// TestChaosLatencyDoesNotCompound: deadlines stamp at arrival, so a burst
// of n envelopes through one inbox is delayed by one latency, not n.
func TestChaosLatencyDoesNotCompound(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{Latency: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 20
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		select {
		case <-inbox:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d burst envelopes arrived", i, burst)
		}
	}
	// Serial delays would take burst*50ms = 1s; stamped-at-arrival should
	// land the whole burst shortly after one latency.
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("burst of %d took %v — latency is compounding per envelope", burst, el)
	}
}

// TestChaosPartitionAndHeal: an interactive partition silently eats all
// traffic to its nodes, and Heal restores delivery.
func TestChaosPartitionAndHeal(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPartition([]core.NodeID{1})
	for i := 0; i < 5; i++ {
		if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
			t.Fatalf("partitioned send surfaced an error: %v", err)
		}
	}
	select {
	case env := <-inbox:
		t.Fatalf("partitioned node received %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	if got := tr.Cut(); got != 5 {
		t.Fatalf("Cut() = %d, want 5", got)
	}
	if s := tr.Stats(); s.Total.Dropped != 5 || s.Total.Sent != 0 {
		t.Fatalf("stats = %+v, want 5 dropped / 0 sent", s.Total)
	}

	tr.Heal()
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never arrived after Heal")
	}
}

// TestChaosScheduledPartition: a pre-scheduled window cuts traffic only
// while it is open, with no orchestrator in the loop.
func TestChaosScheduledPartition(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{
		Partitions: []PartitionWindow{{Start: 0, Stop: 80 * time.Millisecond, Nodes: []core.NodeID{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-inbox:
		t.Fatalf("envelope %+v crossed an open partition window", env)
	case <-time.After(20 * time.Millisecond):
	}
	time.Sleep(100 * time.Millisecond) // window closes on its own
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never arrived after the window closed")
	}
	if got := tr.Cut(); got != 1 {
		t.Fatalf("Cut() = %d, want 1", got)
	}
}

// TestChaosCorruptionIsStructural: at rate 1 every delivered envelope has
// a coefficient or payload length that differs from the original — the
// exact property the receiver's width screens reject on — and the
// sender's copy is never mutated.
func TestChaosCorruptionIsStructural(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{CorruptRate: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	orig := sampleEnvelope()
	wantCoeffs, wantPay := len(orig.Coeffs), len(orig.Payload)
	const sends = 50
	for i := 0; i < sends; i++ {
		if err := tr.Send(context.Background(), 1, orig); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-inbox:
			if len(got.Coeffs) == wantCoeffs && len(got.Payload) == wantPay {
				t.Fatalf("send %d: corrupted envelope kept its shape (%d coeffs, %d payload)",
					i, len(got.Coeffs), len(got.Payload))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("send %d never arrived", i)
		}
		if len(orig.Coeffs) != wantCoeffs || len(orig.Payload) != wantPay {
			t.Fatal("corruption mutated the caller's envelope")
		}
	}
	if got := tr.Corrupted(); got != sends {
		t.Fatalf("Corrupted() = %d, want %d", got, sends)
	}
}

// TestChaosSetLatencyMidRun: the latency profile is hot-swappable — the
// daemon's /chaos endpoint relies on this taking effect immediately for
// envelopes stamped after the call.
func TestChaosSetLatencyMidRun(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	inbox, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetLatency(40*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Send(context.Background(), 1, sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inbox:
		if el := time.Since(start); el < 35*time.Millisecond {
			t.Fatalf("envelope arrived after %v despite the 40ms hot-set latency", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("envelope never arrived")
	}
	if err := tr.SetLatency(-1, 0); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := tr.SetCorruptRate(1.5); err == nil {
		t.Fatal("corrupt rate > 1 accepted")
	}
}

// TestChaosConfigValidation: constructor rejects out-of-range knobs.
func TestChaosConfigValidation(t *testing.T) {
	for _, cfg := range []ChaosConfig{
		{CorruptRate: -0.1},
		{CorruptRate: 1.1},
		{Latency: -time.Second},
		{Jitter: -time.Second},
	} {
		if _, err := NewChaosTransport(NewChanTransport(), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestChaosStatsCountInnerDrops: Stats reports the inner transport's
// backpressure drops next to the layer's own partition cuts, and counts
// every envelope exactly once.
func TestChaosStatsCountInnerDrops(t *testing.T) {
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inbox0, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register(1); err != nil {
		t.Fatal(err)
	}
	// Closing ends the latency pipes once node 0's backlog is read.
	defer func() {
		_ = tr.Close()
		for range inbox0 {
		}
	}()
	// Nobody reads node 0's inbox while sending, so once the inner inbox
	// and the latency pipe behind it are full, the inner transport drops.
	const sends, cuts = 4 * inboxSize, 5
	backpressure := 0
	for i := 0; i < sends; i++ {
		if err := tr.Send(context.Background(), 0, Envelope{From: 1}); errors.Is(err, ErrBackpressure) {
			backpressure++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	tr.SetPartition([]core.NodeID{1})
	for i := 0; i < cuts; i++ {
		if err := tr.Send(context.Background(), 1, Envelope{From: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if backpressure == 0 {
		t.Fatal("overfilled inbox produced no backpressure")
	}
	s := tr.Stats()
	if got := s.PerNode[0]; got.Dropped != uint64(backpressure) || got.Sent+got.Dropped != sends {
		t.Errorf("node 0 stats %+v; want %d dropped of %d", got, backpressure, sends)
	}
	if got := s.PerNode[1]; got.Dropped != cuts || got.Sent != 0 {
		t.Errorf("node 1 stats %+v; want %d cut, 0 sent", got, cuts)
	}
	if s.Total.Dropped != uint64(backpressure+cuts) || s.Total.Sent+s.Total.Dropped != sends+cuts {
		t.Errorf("total stats %+v; want %d dropped of %d", s.Total, backpressure+cuts, sends+cuts)
	}
}

// TestChaosClusterConverges: a full runtime cluster converges and decodes
// through a chaos layer injecting latency, jitter and frame corruption —
// corrupt frames die at the rlnc width screens, latency only dilates time.
func TestChaosClusterConverges(t *testing.T) {
	g := graph.Grid(3, 3)
	const k, r = 4, 4
	tr, err := NewChaosTransport(NewChanTransport(), ChaosConfig{
		Latency:     time.Millisecond,
		Jitter:      2 * time.Millisecond,
		CorruptRate: 0.2,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c, err := NewCluster(tr, g, k, WithPayload(r), WithInterval(200*time.Microsecond), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	msgs := seedMessages(t, c, k, r, g.N())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done != g.N() {
		t.Fatalf("completed %d/%d under chaos", done, g.N())
	}
	verifyDecode(t, c, msgs, g.N())
	if tr.Corrupted() == 0 {
		t.Fatal("chaos layer corrupted nothing at rate 0.2")
	}
}
