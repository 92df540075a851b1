package main

import (
	"context"
	"fmt"
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/rlnc"
	rt "algossip/internal/runtime"
)

// liveTimeout bounds one cluster run; a healthy one takes about 0.1 s.
const liveTimeout = 30 * time.Second

// liveTrial is one live-cluster trial's record.
type liveTrial struct {
	setup, trial time.Duration // build+seed; Run until complete, decode and verify
	alloc        uint64        // bytes allocated inside the trial span
	heapPeak     uint64        // peak heap in use over setup and trial
	graphBuild   time.Duration
	run, decode  time.Duration
	decodeEach   []time.Duration
	doneTickMax  int     // the cluster's stopping tick
	ticksMean    float64 // ticks each node ran, averaged over nodes
	sent         uint64
	dropped      uint64
}

// runLive builds a payload-mode cluster over the in-process transport,
// runs it until every node can decode, then decodes every node and
// compares the bytes with the source messages.
func runLive(w workload, seed uint64) (t liveTrial, err error) {
	peak := startHeapPeak()
	defer func() { t.heapPeak = peak.end() }()
	t0 := time.Now()
	g, err := w.buildGraph(seed)
	if err != nil {
		return t, err
	}
	t1 := time.Now()
	field := gf.MustNew(w.q)
	msgs := algebraic.RandomMessages(rlnc.Config{Field: field, K: w.k, PayloadLen: w.r},
		core.NewRand(core.SplitSeed(seed, 11)))
	tr := rt.NewChanTransport()
	defer tr.Close()
	c, err := rt.NewCluster(tr, g, w.k, rt.WithPayload(w.r), rt.WithField(field),
		rt.WithSeed(core.SplitSeed(seed, 1)))
	if err != nil {
		return t, err
	}
	for i, v := range algebraic.RoundRobinAssign(w.k, g.N()) {
		if err := c.Seed(v, msgs[i]); err != nil {
			return t, err
		}
	}
	a0 := allocBytes()
	t2 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
	defer cancel()
	done, err := c.Run(ctx)
	if err != nil {
		return t, err
	}
	if done != g.N() {
		return t, fmt.Errorf("%d of %d nodes completed", done, g.N())
	}
	t3 := time.Now()
	t.decodeEach = make([]time.Duration, 0, g.N())
	for v := 0; v < g.N(); v++ {
		d0 := time.Now()
		got, err := c.Decode(core.NodeID(v))
		t.decodeEach = append(t.decodeEach, time.Since(d0))
		if err != nil {
			return t, fmt.Errorf("node %d: %w", v, err)
		}
		if err := verifyDecoded(got, msgs); err != nil {
			return t, fmt.Errorf("node %d: %w", v, err)
		}
	}
	t4 := time.Now()
	t.alloc = allocBytes() - a0
	t.setup, t.trial = t2.Sub(t0), t4.Sub(t2)
	t.graphBuild, t.run, t.decode = t1.Sub(t0), t3.Sub(t2), t4.Sub(t3)
	var ticks int
	for _, s := range c.Status() {
		t.doneTickMax = max(t.doneTickMax, s.DoneTick)
		ticks += s.Ticks
	}
	t.ticksMean = float64(ticks) / float64(g.N())
	stats := tr.Stats()
	t.sent, t.dropped = stats.Total.Sent, stats.Total.Dropped
	return t, nil
}
