package main

import (
	"math/bits"
	"sync/atomic"
	"time"

	"algossip/internal/core"
	"algossip/internal/sim"
)

// tracer is a pass-through sim.ShardedProtocol: it forwards every call to
// the protocol the engine would otherwise drive and times the calls from
// outside. It draws no randomness and changes no argument, so a traced
// trial replays the untraced trajectory exactly.
//
// Per synchronous round it splits the wall time at the engine's call
// boundaries: BeginRound until EndRound (classic) or CommitRound
// (sharded) is the wake phase, EndRound/CommitRound itself the commit
// phase. In sharded runs it also sums each WakeShard call, which run
// concurrently, and counts the set bits of the round's ActiveWords.
type tracer struct {
	inner sim.ShardedProtocol

	inRound    bool
	counted    bool // ActiveWords already counted this round
	roundStart time.Time

	wake, commit time.Duration
	roundTimes   []time.Duration // begin-to-commit-end wall time per round
	activeBits   int64           // set ActiveWords bits summed over rounds
	shardBusy    atomic.Int64    // nanoseconds inside WakeShard, all shards
}

var _ sim.ShardedProtocol = (*tracer)(nil)

func newTracer(inner sim.ShardedProtocol) *tracer { return &tracer{inner: inner} }

func (t *tracer) Name() string          { return t.inner.Name() }
func (t *tracer) Done() bool            { return t.inner.Done() }
func (t *tracer) OnWake(v core.NodeID)  { t.inner.OnWake(v) }
func (t *tracer) EndRound(round int)    { t.finish(round, t.inner.EndRound) }
func (t *tracer) CommitRound(round int) { t.finish(round, t.inner.CommitRound) }

func (t *tracer) BeginRound(round int) {
	t.inRound, t.counted = true, false
	t.roundStart = time.Now()
	t.inner.BeginRound(round)
}

// finish closes the round's wake phase and times the commit call.
func (t *tracer) finish(round int, commit func(int)) {
	t0 := time.Now()
	t.wake += t0.Sub(t.roundStart)
	commit(round)
	t1 := time.Now()
	t.commit += t1.Sub(t0)
	t.roundTimes = append(t.roundTimes, t1.Sub(t.roundStart))
	t.inRound = false
}

// ActiveWords counts the bits of the first call inside a round; the
// engine also calls it once before the first round to validate the
// protocol, which is not a round.
func (t *tracer) ActiveWords() []uint64 {
	words := t.inner.ActiveWords()
	if t.inRound && !t.counted {
		t.counted = true
		for _, w := range words {
			t.activeBits += int64(bits.OnesCount64(w))
		}
	}
	return words
}

func (t *tracer) WakeShard(lo, hi int) {
	t0 := time.Now()
	t.inner.WakeShard(lo, hi)
	t.shardBusy.Add(int64(time.Since(t0)))
}
