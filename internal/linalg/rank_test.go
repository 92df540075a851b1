package linalg

import (
	"errors"
	"testing"
	"testing/quick"

	"algossip/internal/core"
	"algossip/internal/gf"
)

func TestRankMatrixBasic(t *testing.T) {
	f := gf.MustNew(256)
	m := NewRankMatrix(f, 3, 0)
	if m.Rank() != 0 || m.Full() {
		t.Fatal("fresh matrix should be empty")
	}
	if !m.Add([]gf.Elem{1, 2, 3}, nil) {
		t.Fatal("first row must be helpful")
	}
	if m.Add([]gf.Elem{1, 2, 3}, nil) {
		t.Fatal("duplicate row must not be helpful")
	}
	if m.Add([]gf.Elem{2, 4, 6}, nil) {
		t.Fatal("scaled row must not be helpful")
	}
	if !m.Add([]gf.Elem{0, 1, 1}, nil) {
		t.Fatal("independent row must be helpful")
	}
	if m.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", m.Rank())
	}
	if !m.Add([]gf.Elem{0, 0, 5}, nil) {
		t.Fatal("third independent row must be helpful")
	}
	if !m.Full() {
		t.Fatal("matrix should be full rank")
	}
	if m.Add([]gf.Elem{7, 7, 7}, nil) {
		t.Fatal("no row can help a full-rank matrix")
	}
}

func TestRankMatrixZeroRow(t *testing.T) {
	f := gf.MustNew(4)
	m := NewRankMatrix(f, 4, 0)
	if m.Add(make([]gf.Elem, 4), nil) {
		t.Fatal("zero row must not increase rank")
	}
}

func TestRankMatrixWouldHelp(t *testing.T) {
	f := gf.MustNew(16)
	m := NewRankMatrix(f, 3, 2)
	m.Add([]gf.Elem{1, 1, 0}, []byte{9, 9})
	if !m.WouldHelp([]gf.Elem{0, 1, 1}) {
		t.Fatal("independent coeffs should help")
	}
	if m.WouldHelp([]gf.Elem{2, 2, 0}) {
		t.Fatal("dependent coeffs should not help")
	}
	if m.Rank() != 1 {
		t.Fatal("WouldHelp must not mutate")
	}
}

// TestSolveRoundTrip encodes k random messages as random combinations and
// checks that Solve recovers them exactly — decode(encode(x)) == x.
func TestSolveRoundTrip(t *testing.T) {
	for _, q := range []int{2, 4, 16, 256, 101} {
		f := gf.MustNew(q)
		t.Run(f.Name(), func(t *testing.T) {
			rng := core.NewRand(99)
			const k, r = 8, 5
			msgs := make([][]byte, k)
			for i := range msgs {
				msgs[i] = gf.RandBytes(f, r, rng)
			}
			m := NewRankMatrix(f, k, r)
			guard := 0
			for !m.Full() {
				guard++
				if guard > 10000 {
					t.Fatal("decoder did not reach full rank")
				}
				coeffs := gf.RandVector(f, k, rng)
				pay := make([]byte, r)
				for i, c := range coeffs {
					f.AddMulSlice(pay, msgs[i], c)
				}
				m.Add(coeffs, pay)
			}
			got, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			for i := range msgs {
				for j := range msgs[i] {
					if got[i][j] != msgs[i][j] {
						t.Fatalf("decoded message %d differs at symbol %d: got %d want %d",
							i, j, got[i][j], msgs[i][j])
					}
				}
			}
		})
	}
}

func TestSolveNotFullRank(t *testing.T) {
	f := gf.MustNew(2)
	m := NewRankMatrix(f, 3, 1)
	m.Add([]gf.Elem{1, 0, 0}, []byte{1})
	if _, err := m.Solve(); !errors.Is(err, ErrNotFullRank) {
		t.Fatalf("Solve on deficient matrix: err = %v, want ErrNotFullRank", err)
	}
}

// TestRandomCombinationStaysInRowSpace checks that every emitted combination
// is dependent on the stored rows (never helpful to the emitter itself).
func TestRandomCombinationStaysInRowSpace(t *testing.T) {
	f := gf.MustNew(256)
	rng := core.NewRand(5)
	m := NewRankMatrix(f, 6, 3)
	for i := 0; i < 4; i++ {
		m.Add(gf.RandVector(f, 6, rng), gf.RandBytes(f, 3, rng))
	}
	for trial := 0; trial < 200; trial++ {
		coeffs, pay := m.RandomCombination(rng)
		if coeffs == nil {
			t.Fatal("combination from non-empty matrix is nil")
		}
		if len(pay) != 3 {
			t.Fatalf("combination payload length = %d, want 3", len(pay))
		}
		if m.WouldHelp(coeffs) {
			t.Fatal("a node's own combination can never be helpful to itself")
		}
	}
}

func TestRandomCombinationEmpty(t *testing.T) {
	f := gf.MustNew(4)
	m := NewRankMatrix(f, 3, 0)
	if coeffs, pay := m.RandomCombination(core.NewRand(1)); coeffs != nil || pay != nil {
		t.Fatal("empty matrix must emit nil")
	}
}

// TestRankInvariantQuick: rank never exceeds min(#rows added, cols), and is
// invariant under adding linear combinations of existing rows.
func TestRankInvariantQuick(t *testing.T) {
	f := gf.MustNew(16)
	rng := core.NewRand(13)
	check := func(seed uint64) bool {
		r := core.NewRand(seed)
		cols := 1 + r.IntN(10)
		m := NewRankMatrix(f, cols, 0)
		added := 0
		for i := 0; i < 20; i++ {
			m.Add(gf.RandVector(f, cols, r), nil)
			added++
			if m.Rank() > added || m.Rank() > cols {
				return false
			}
		}
		// Adding a combination of existing rows must never change the rank.
		before := m.Rank()
		if coeffs, pay := m.RandomCombination(rng); coeffs != nil {
			m.Add(coeffs, pay)
		}
		return m.Rank() == before
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRankFunction(t *testing.T) {
	f := gf.MustNew(2)
	rows := [][]gf.Elem{
		{1, 0, 1},
		{0, 1, 1},
		{1, 1, 0}, // sum of the first two
	}
	if got := Rank(f, rows, 3); got != 2 {
		t.Fatalf("Rank = %d, want 2", got)
	}
}

func TestClone(t *testing.T) {
	f := gf.MustNew(256)
	m := NewRankMatrix(f, 4, 2)
	m.Add([]gf.Elem{1, 2, 3, 4}, []byte{5, 6})
	cp := m.Clone()
	cp.Add([]gf.Elem{0, 1, 0, 0}, []byte{7, 8})
	if m.Rank() != 1 || cp.Rank() != 2 {
		t.Fatalf("clone not independent: ranks %d, %d", m.Rank(), cp.Rank())
	}
}

func TestAddPanicsOnWidthMismatch(t *testing.T) {
	f := gf.MustNew(2)
	m := NewRankMatrix(f, 3, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on width mismatch")
		}
	}()
	m.Add([]gf.Elem{1, 2}, []byte{0})
}

func TestAddPanicsOnPayloadMismatch(t *testing.T) {
	f := gf.MustNew(2)
	m := NewRankMatrix(f, 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on payload width mismatch")
		}
	}()
	m.Add([]gf.Elem{1, 0, 0}, []byte{0})
}

// TestSolveAfterPartialThenMore ensures Solve's in-place reduction preserves
// correctness if more rows arrive after a failed decode attempt.
func TestSolveIdempotent(t *testing.T) {
	f := gf.MustNew(256)
	rng := core.NewRand(77)
	const k, r = 5, 3
	msgs := make([][]byte, k)
	for i := range msgs {
		msgs[i] = gf.RandBytes(f, r, rng)
	}
	emit := func() ([]gf.Elem, []byte) {
		coeffs := gf.RandVector(f, k, rng)
		pay := make([]byte, r)
		for i, c := range coeffs {
			f.AddMulSlice(pay, msgs[i], c)
		}
		return coeffs, pay
	}
	m := NewRankMatrix(f, k, r)
	for m.Rank() < k-1 {
		m.Add(emit())
	}
	if _, err := m.Solve(); err == nil {
		t.Fatal("expected ErrNotFullRank")
	}
	for !m.Full() {
		m.Add(emit())
	}
	got1, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := m.Solve() // solving twice must agree
	if err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		for j := range msgs[i] {
			if got1[i][j] != msgs[i][j] || got2[i][j] != msgs[i][j] {
				t.Fatalf("decode mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestRandomSquareInvertibleFraction sanity-checks the well-known fact that
// a uniform random square matrix over GF(q) is invertible with probability
// ~prod(1-q^-i) (≈ 0.29 for q=2, ≈ 0.996 for q=256): 8 uniform rows fed to
// a RankMatrix reach rank 8 that often.
func TestRandomSquareInvertibleFraction(t *testing.T) {
	rng := core.NewRand(23)
	count := func(q int) float64 {
		f := gf.MustNew(q)
		inv := 0
		const trials = 400
		for i := 0; i < trials; i++ {
			m := NewRankMatrix(f, 8, 0)
			for r := 0; r < 8; r++ {
				m.Add(gf.RandVector(f, 8, rng), nil)
			}
			if m.Full() {
				inv++
			}
		}
		return float64(inv) / trials
	}
	if got := count(2); got < 0.20 || got > 0.40 {
		t.Errorf("GF(2) invertible fraction %.2f, want ~0.29", got)
	}
	if got := count(256); got < 0.95 {
		t.Errorf("GF(256) invertible fraction %.2f, want ~1", got)
	}
}
