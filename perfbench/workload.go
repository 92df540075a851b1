package main

import (
	"bytes"
	"fmt"
	"time"

	"algossip/internal/core"
	"algossip/internal/gossip"
	"algossip/internal/gossip/algebraic"
	"algossip/internal/graph"
	"algossip/internal/harness"
	"algossip/internal/rlnc"
	"algossip/internal/sim"
)

// workload is one fixed benchmark configuration. README.md records why
// each exists and which layer it loads.
type workload struct {
	name         string
	graph        string // graph.FromName family
	n, k         int
	q            int  // field order
	r            int  // payload bytes per message; 0 runs rank-only
	gen          int  // generation size; 0 codes all k messages together
	singleSource bool // all messages start at node 0 (else round-robin)
	sharded      bool // sharded round-parallel engine with shards = nproc
	live         bool // runtime.Cluster over ChanTransport, not the simulator
	graphInput   bool // graphs are generated once per run, outside set-up
	seeds        int  // length of the fixed trial-seed list
}

// The randreg pairing model retries a geometric number of times (about
// 40 on average at d=4), so one n=24000 build takes 0.04-1.7 s depending
// on the seed. No affordable number of builds per run makes that steady,
// so sharded-gen-randreg generates its graphs as inputs before the
// measured passes and reports their build time as graph.build_s only.
var workloads = []workload{
	{name: "rank-complete-gf256", graph: "complete", n: 1024, k: 128, q: 256, seeds: 3},
	{name: "payload-decode-gf256", graph: "complete", n: 256, k: 128, q: 256, r: 1024, seeds: 2},
	{name: "sharded-gen-randreg", graph: "randreg", n: 24000, k: 16, q: 2, gen: 4,
		singleSource: true, sharded: true, graphInput: true, seeds: 5},
	{name: "live-chan-payload", graph: "randreg", n: 64, k: 32, q: 256, r: 1024, live: true, seeds: 30},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trialSeed is the i-th seed of the workload's fixed trial list. Every run
// with the same workload seed replays the same trials.
func trialSeed(workloadSeed uint64, i int) uint64 { return core.SplitSeed(workloadSeed, uint64(i)) }

// viaExecute reports whether the untraced run goes through
// harness.Execute. The payload workload cannot: Execute keeps its
// protocol private, and every node must decode from it. Nor can a
// workload whose graphs are inputs: its set-up is protocol construction,
// which happens inside Execute.
func (w workload) viaExecute() bool { return w.r == 0 && !w.live && !w.graphInput }

// buildGraph generates the trial's topology from its own seed stream
// (999, the stream harness specs use for graphs).
func (w workload) buildGraph(seed uint64) (*graph.Graph, error) {
	return graph.FromName(w.graph, w.n, core.NewRand(core.SplitSeed(seed, 999)))
}

// spec is the harness description of one simulated trial.
func (w workload) spec(g *graph.Graph, shards int) harness.GossipSpec {
	s := harness.GossipSpec{
		Graph: g, K: w.k, Q: w.q, PayloadLen: w.r, GenSize: w.gen,
		SingleSource: w.singleSource, Lean: true,
	}
	if w.sharded {
		s.Shards = shards
	}
	return s
}

// coded is what the benchmark needs from either algebraic protocol.
type coded interface {
	sim.ShardedProtocol
	Traffic() gossip.Traffic
	SeedAll(assign []core.NodeID, msgs []rlnc.Message) error
	EnableSharded(seed uint64, retire bool) error
}

// built is a constructed, seeded protocol ready for the engine.
type built struct {
	proto  coded
	msgs   []rlnc.Message // source messages (payload mode only)
	decode func(v core.NodeID) ([]rlnc.Message, error)
}

// buildProtocol constructs, seeds and (for sharded specs) configures the
// uniform-AG protocol as harness.Execute does for a static, honest spec,
// from the same seed streams, so the engine replays Execute's
// trajectory. The traced run checks that it does.
func buildProtocol(spec harness.GossipSpec, seed uint64) (built, error) {
	spec = spec.Normalize()
	g := spec.Graph
	var b built
	if spec.PayloadLen > 0 {
		b.msgs = algebraic.RandomMessages(spec.RLNCConfig(), core.NewRand(core.SplitSeed(seed, 11)))
	}
	rng := core.NewRand(core.SplitSeed(seed, 1))
	if spec.GenSize > 0 {
		cfg := rlnc.GenConfig{Inner: spec.RLNCConfig(), K: spec.K, GenSize: spec.GenSize}
		cfg.Inner.K = 0
		p, err := algebraic.NewGen(g, spec.Model, sim.NewUniform(g), cfg, rng)
		if err != nil {
			return b, err
		}
		b.proto = p
		b.decode = func(v core.NodeID) ([]rlnc.Message, error) { return p.Node(v).Decode() }
	} else {
		cfg := algebraic.Config{RLNC: spec.RLNCConfig(), Action: spec.Action}
		p, err := algebraic.New(g, spec.Model, sim.NewUniform(g), cfg, rng)
		if err != nil {
			return b, err
		}
		b.proto = p
		b.decode = func(v core.NodeID) ([]rlnc.Message, error) { return p.Node(v).Decode() }
	}
	if err := b.proto.SeedAll(spec.Assign(), b.msgs); err != nil {
		return b, err
	}
	if spec.Shards > 0 {
		if err := b.proto.EnableSharded(core.SplitSeed(seed, 12), true); err != nil {
			return b, err
		}
	}
	return b, nil
}

// engine returns the engine harness.Execute would run proto under.
func engine(spec harness.GossipSpec, proto sim.Protocol, seed uint64) *sim.Engine {
	spec = spec.Normalize()
	opts := []sim.Option{sim.WithMaxRounds(spec.MaxRounds)}
	if spec.Shards > 0 {
		opts = append(opts, sim.WithShards(spec.Shards))
	}
	return sim.New(spec.Graph, spec.Model, proto, core.SplitSeed(seed, 2), opts...)
}

// verifyDecoded compares one node's decoded messages with the sources.
func verifyDecoded(got, want []rlnc.Message) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || !bytes.Equal(got[i].Payload, want[i].Payload) {
			return fmt.Errorf("message %d differs from its source", i)
		}
	}
	return nil
}

// simTrial is one simulated trial's record.
type simTrial struct {
	setup, trial time.Duration // as defined for the workload's untraced path
	alloc        uint64        // bytes allocated inside the trial span
	heapPeak     uint64        // peak heap in use over setup and trial
	rounds       int
	traffic      gossip.Traffic

	// Traced runs only.
	graphBuild, algSetup time.Duration
	decode               time.Duration
	decodeEach           []time.Duration
	tr                   *tracer
	n                    int
}

// trialGraph returns g, or builds the trial's graph when g is nil.
func (w workload) trialGraph(g *graph.Graph, seed uint64) (*graph.Graph, error) {
	if g != nil {
		return g, nil
	}
	return w.buildGraph(seed)
}

// runExecute runs one untraced trial through harness.Execute, on g or,
// when g is nil, on a graph it builds. Protocol construction happens
// inside Execute, so it counts in trial time; set-up is the graph alone.
func runExecute(w workload, seed uint64, shards int, g *graph.Graph) (t simTrial, err error) {
	peak := startHeapPeak()
	defer func() { t.heapPeak = peak.end() }()
	t0 := time.Now()
	g, err = w.trialGraph(g, seed)
	if err != nil {
		return t, err
	}
	spec := w.spec(g, shards)
	a0 := allocBytes()
	t1 := time.Now()
	out, err := harness.Execute(spec, harness.ProtocolUniformAG, seed)
	t2 := time.Now()
	if err != nil {
		return t, err
	}
	t.alloc = allocBytes() - a0
	t.setup, t.trial = t1.Sub(t0), t2.Sub(t1)
	t.rounds, t.traffic, t.n = out.Result.Rounds, out.Traffic, g.N()
	return t, nil
}

// runDirect runs one trial through buildProtocol and the engine, traced
// or not, and decodes and verifies every node in payload mode. It runs on
// g or, when g is nil, on a graph it builds. Its setup and trial times
// cover the same calls as the workload's untraced path, so traced and
// untraced times compare like for like.
func runDirect(w workload, seed uint64, shards int, traced bool, g *graph.Graph) (t simTrial, err error) {
	peak := startHeapPeak()
	defer func() { t.heapPeak = peak.end() }()
	t0 := time.Now()
	g, err = w.trialGraph(g, seed)
	if err != nil {
		return t, err
	}
	spec := w.spec(g, shards)
	a0 := allocBytes()
	t1 := time.Now()
	b, err := buildProtocol(spec, seed)
	if err != nil {
		return t, err
	}
	t2 := time.Now()
	a1 := allocBytes()
	var proto sim.Protocol = b.proto
	if traced {
		t.tr = newTracer(b.proto)
		proto = t.tr
	}
	res, err := engine(spec, proto, seed).Run()
	if err != nil {
		return t, err
	}
	t3 := time.Now()
	if w.r > 0 {
		t.decodeEach = make([]time.Duration, 0, g.N())
		for v := 0; v < g.N(); v++ {
			d0 := time.Now()
			got, err := b.decode(core.NodeID(v))
			t.decodeEach = append(t.decodeEach, time.Since(d0))
			if err != nil {
				return t, fmt.Errorf("node %d: %w", v, err)
			}
			if err := verifyDecoded(got, b.msgs); err != nil {
				return t, fmt.Errorf("node %d: %w", v, err)
			}
		}
	}
	t4 := time.Now()
	a2 := allocBytes()
	t.graphBuild, t.algSetup, t.decode = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
	if w.viaExecute() {
		t.setup, t.trial, t.alloc = t1.Sub(t0), t3.Sub(t1), a2-a0
	} else {
		t.setup, t.trial, t.alloc = t2.Sub(t0), t4.Sub(t2), a2-a1
	}
	t.rounds, t.traffic, t.n = res.Rounds, b.proto.Traffic(), g.N()
	return t, nil
}

// untraced runs the workload's end-to-end path for one trial.
func (w workload) untraced(seed uint64, shards int, g *graph.Graph) (simTrial, error) {
	if w.viaExecute() {
		return runExecute(w, seed, shards, g)
	}
	return runDirect(w, seed, shards, false, g)
}

// sameTrajectory reports whether two trials of one seed stopped at the
// same round with identical traffic counts.
func sameTrajectory(a, b simTrial) error {
	if a.rounds != b.rounds || a.traffic != b.traffic {
		return fmt.Errorf("trajectory differs: rounds %d vs %d, traffic %+v vs %+v",
			a.rounds, b.rounds, a.traffic, b.traffic)
	}
	return nil
}
