package main

import (
	"testing"
)

// TestTracerKeepsTrajectory pins the pass-through contract: a traced
// trial stops at the same round with the same traffic as
// harness.Execute, on the classic and the sharded engine, and the
// traced payload trial decodes every node.
func TestTracerKeepsTrajectory(t *testing.T) {
	cases := []struct {
		w      workload
		shards int
	}{
		{workload{name: "classic-rank", graph: "complete", n: 48, k: 12, q: 256, seeds: 2}, 0},
		{workload{name: "classic-payload", graph: "randreg", n: 40, k: 8, q: 256, r: 64, seeds: 2}, 0},
		{workload{name: "sharded-gen", graph: "randreg", n: 300, k: 8, q: 2, gen: 4,
			singleSource: true, sharded: true, seeds: 2}, 2},
		{workload{name: "sharded-rank", graph: "complete", n: 130, k: 8, q: 16, sharded: true, seeds: 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.w.name, func(t *testing.T) {
			for i := 0; i < tc.w.seeds; i++ {
				seed := trialSeed(7, i)
				want, err := runExecute(tc.w, seed, tc.shards, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := runDirect(tc.w, seed, tc.shards, true, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTrajectory(want, got); err != nil {
					t.Fatalf("seed %d: %v", i, err)
				}
				if len(got.tr.roundTimes) != got.rounds {
					t.Errorf("tracer saw %d rounds, run took %d", len(got.tr.roundTimes), got.rounds)
				}
				if tc.w.sharded {
					if got.tr.activeBits <= 0 || got.tr.activeBits > int64(got.n*got.rounds) {
						t.Errorf("active bits %d outside (0, n*rounds=%d]", got.tr.activeBits, got.n*got.rounds)
					}
					if got.tr.shardBusy.Load() <= 0 {
						t.Error("no WakeShard time recorded")
					}
				}
				if tc.w.r > 0 && len(got.decodeEach) != got.n {
					t.Errorf("decoded %d nodes, want %d", len(got.decodeEach), got.n)
				}
			}
		})
	}
}

// TestShardCountInvariant is the benchmark's shards=1 cross-check on a
// small graph: any positive shard count replays the same trajectory.
func TestShardCountInvariant(t *testing.T) {
	w := workload{name: "sharded-gen", graph: "randreg", n: 500, k: 8, q: 2, gen: 4,
		singleSource: true, sharded: true, seeds: 1}
	seed := trialSeed(3, 0)
	one, err := runExecute(w, seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	four, err := runExecute(w, seed, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTrajectory(one, four); err != nil {
		t.Fatal(err)
	}
}
