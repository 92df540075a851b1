package rlnc

import (
	"fmt"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

func genCfg(k, genSize int) GenConfig {
	return GenConfig{
		Inner:   Config{Field: gf.MustNew(256), PayloadLen: 4},
		K:       k,
		GenSize: genSize,
	}
}

func TestGenConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{Inner: Config{Field: gf.MustNew(2)}, K: 0, GenSize: 1},
		{Inner: Config{Field: gf.MustNew(2)}, K: 4, GenSize: 0},
		{Inner: Config{Field: gf.MustNew(2)}, K: 4, GenSize: 5},
	}
	for _, cfg := range bad {
		if _, err := NewGenNode(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGenerationsAndBounds(t *testing.T) {
	cfg := genCfg(10, 4)
	if cfg.Generations() != 3 {
		t.Fatalf("Generations = %d, want 3", cfg.Generations())
	}
	lo, hi := cfg.genBounds(2)
	if lo != 8 || hi != 10 {
		t.Fatalf("last generation bounds = [%d,%d), want [8,10)", lo, hi)
	}
}

// TestGenRoundTrip: a source with all messages coded in generations feeds a
// sink until it decodes all k with correct global indices and payloads.
func TestGenRoundTrip(t *testing.T) {
	for _, genSize := range []int{1, 3, 5, 10} {
		cfg := genCfg(10, genSize)
		rng := core.NewRand(uint64(genSize))
		src, err := NewGenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		msgs := make([]Message, cfg.K)
		for i := range msgs {
			msgs[i] = Message{Index: i, Payload: gf.RandBytes(cfg.Inner.Field, 4, rng)}
			src.Seed(msgs[i])
		}
		if !src.CanDecode() {
			t.Fatal("source must be full rank")
		}
		dst, err := NewGenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for !dst.CanDecode() {
			steps++
			if steps > 20000 {
				t.Fatalf("genSize=%d: no convergence", genSize)
			}
			dst.Receive(src.Emit(rng))
		}
		got, err := dst.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cfg.K {
			t.Fatalf("decoded %d messages", len(got))
		}
		for i, m := range got {
			if m.Index != i {
				t.Fatalf("message %d has index %d", i, m.Index)
			}
			for j := range m.Payload {
				if m.Payload[j] != msgs[i].Payload[j] {
					t.Fatalf("genSize=%d: payload mismatch at (%d,%d)", genSize, i, j)
				}
			}
		}
	}
}

// TestGenerationFullDecodeEquivalence: for every supported field, the
// payload decoded through generation-based coding is identical to the
// payload decoded through full-span coding — generations change packet
// layout and decode cost, never the recovered data.
func TestGenerationFullDecodeEquivalence(t *testing.T) {
	const k, r = 12, 4
	for _, field := range gf.Fields() {
		t.Run(fmt.Sprintf("q%d", field.Order()), func(t *testing.T) {
			rng := core.NewRand(uint64(field.Order()))
			msgs := make([]Message, k)
			for i := range msgs {
				msgs[i] = Message{Index: i, Payload: gf.RandBytes(field, r, rng)}
			}
			decode := func(genSize int) []Message {
				cfg := GenConfig{Inner: Config{Field: field, PayloadLen: r}, K: k, GenSize: genSize}
				src, err := NewGenNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range msgs {
					src.Seed(m)
				}
				dst, err := NewGenNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for guard := 0; !dst.CanDecode(); guard++ {
					if guard > 100000 {
						t.Fatalf("genSize=%d: no convergence", genSize)
					}
					dst.Receive(src.Emit(rng))
				}
				got, err := dst.Decode()
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			gen := decode(5) // generations of size 5, 5, 2
			full := decode(k)
			for i := 0; i < k; i++ {
				if gen[i].Index != i || full[i].Index != i {
					t.Fatalf("message %d decoded with index %d/%d", i, gen[i].Index, full[i].Index)
				}
				for j := 0; j < r; j++ {
					if gen[i].Payload[j] != msgs[i].Payload[j] {
						t.Fatalf("generation decode corrupted message %d symbol %d", i, j)
					}
					if full[i].Payload[j] != msgs[i].Payload[j] {
						t.Fatalf("full decode corrupted message %d symbol %d", i, j)
					}
				}
			}
		})
	}
}

func TestGenEmitEmpty(t *testing.T) {
	n, err := NewGenNode(genCfg(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if n.Emit(core.NewRand(1)) != nil {
		t.Fatal("empty node must emit nil")
	}
	if n.Receive(nil) {
		t.Fatal("nil packet must not help")
	}
}

func TestGenMessageBitsShrink(t *testing.T) {
	full := genCfg(64, 64).MessageBits()
	small := genCfg(64, 8).MessageBits()
	if small >= full {
		t.Fatalf("generation size 8 packet (%d bits) not smaller than full (%d bits)", small, full)
	}
}

func TestGenDecodeBeforeReady(t *testing.T) {
	n, err := NewGenNode(genCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	n.Seed(Message{Index: 0, Payload: make([]byte, 4)})
	if _, err := n.Decode(); err == nil {
		t.Fatal("decode before full rank must fail")
	}
}

// TestGenCouponCollectorEffect: with single-message generations (GenSize=1,
// i.e. uncoded-per-slot), the transfer takes more emissions than full
// coding because the random generation choice repeats finished generations.
func TestGenCouponCollectorEffect(t *testing.T) {
	transfers := func(genSize int) int {
		cfg := genCfg(24, genSize)
		total := 0
		for seed := uint64(0); seed < 5; seed++ {
			rng := core.NewRand(seed)
			src, _ := NewGenNode(cfg)
			for i := 0; i < cfg.K; i++ {
				src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Inner.Field, 4, rng)})
			}
			dst, _ := NewGenNode(cfg)
			for !dst.CanDecode() {
				total++
				dst.Receive(src.Emit(rng))
			}
		}
		return total
	}
	single := transfers(1)
	full := transfers(24)
	if single <= full {
		t.Errorf("GenSize=1 (%d transfers) should pay a coupon-collector premium vs full coding (%d)",
			single, full)
	}
}

// TestSkipEmitParity: SkipEmit consumes exactly the randomness EmitInto
// draws — the generation pick, then the picked generation's coefficient
// draws — on every backend and in both layouts, so a protocol may skip
// building a packet whose verdict is known without moving the stream.
func TestSkipEmitParity(t *testing.T) {
	for _, q := range []int{2, 16, 251} {
		for _, genSize := range []int{0, 3, 10} {
			cfg := GenConfig{Inner: Config{Field: gf.MustNew(q), RankOnly: true}, K: 10, GenSize: genSize}
			var n *Node
			var err error
			if genSize == 0 {
				cfg.Inner.K = cfg.K
				n, err = NewNode(cfg.Inner)
			} else {
				n, err = NewGenNode(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 1, 4, 9} {
				n.Seed(Message{Index: i})
			}
			for seed := uint64(0); seed < 20; seed++ {
				emit, skip := core.NewRand(seed), core.NewRand(seed)
				if !n.EmitInto(emit, &Packet{}) || !n.SkipEmit(skip) {
					t.Fatal("seeded node reported nothing to emit")
				}
				if emit.Uint64() != skip.Uint64() {
					t.Fatalf("q=%d g=%d seed=%d: SkipEmit drew differently from EmitInto", q, genSize, seed)
				}
			}
		}
	}
}

// TestRankCacheMatchesBackends: the cached total and per-generation ranks
// track the backends' own ranks through seeding, helpful and unhelpful
// receives.
func TestRankCacheMatchesBackends(t *testing.T) {
	for _, q := range []int{2, 16, 251} {
		cfg := GenConfig{Inner: Config{Field: gf.MustNew(q), PayloadLen: 2}, K: 7, GenSize: 3}
		src, err := NewGenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewGenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := core.NewRand(uint64(q))
		for i := 0; i < cfg.K; i++ {
			src.Seed(Message{Index: i, Payload: gf.RandBytes(cfg.Inner.Field, 2, rng)})
		}
		for step := 0; step < 60; step++ {
			dst.Receive(src.Emit(rng))
			total := 0
			for g := range dst.parts {
				pt := &dst.parts[g]
				var r int
				switch {
				case pt.bit != nil:
					r = pt.bit.Rank()
				case pt.slc != nil:
					r = pt.slc.Rank()
				default:
					r = pt.mat.Rank()
				}
				if r != pt.rank {
					t.Fatalf("q=%d: generation %d cached rank %d, backend %d", q, g, pt.rank, r)
				}
				total += r
			}
			if total != dst.Rank() {
				t.Fatalf("q=%d: cached rank %d, backends sum to %d", q, dst.Rank(), total)
			}
		}
		if !dst.CanDecode() {
			t.Fatalf("q=%d: no convergence in 60 packets", q)
		}
	}
}
