package linalg

import (
	"crypto/subtle"
	"errors"
	"math/bits"
	"math/rand/v2"

	"algossip/internal/gf"
)

// BitVec is a packed vector over GF(2), 64 coordinates per word.
type BitVec []uint64

// NewBitVec returns an all-zero vector with the given number of bits.
func NewBitVec(nbits int) BitVec {
	return make(BitVec, (nbits+63)/64)
}

// Set sets bit i to 1.
func (v BitVec) Set(i int) { v[i/64] |= 1 << (uint(i) % 64) }

// Clear sets bit i to 0.
func (v BitVec) Clear(i int) { v[i/64] &^= 1 << (uint(i) % 64) }

// Get reports whether bit i is 1.
func (v BitVec) Get(i int) bool { return v[i/64]&(1<<(uint(i)%64)) != 0 }

// Xor performs v ^= w element-wise through gf.XorWords. w must not be
// longer than v.
func (v BitVec) Xor(w BitVec) {
	gf.XorWords(v, w)
}

// Or performs v |= w element-wise. w must not be longer than v.
func (v BitVec) Or(w BitVec) {
	for i, x := range w {
		v[i] |= x
	}
}

// Zero clears every bit in place.
func (v BitVec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// IsZero reports whether every bit is 0.
func (v BitVec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (v BitVec) OnesCount() int {
	total := 0
	for _, x := range v {
		total += bits.OnesCount64(x)
	}
	return total
}

// Clone returns an independent copy of v.
func (v BitVec) Clone() BitVec {
	return append(BitVec(nil), v...)
}

// LowestSet returns the index of the lowest set bit, or -1 if v is zero.
func (v BitVec) LowestSet() int {
	for i, x := range v {
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// BitMatrix maintains rows over GF(2) in row-echelon form using packed
// 64-bit words, optionally carrying an augmented []byte payload per row
// (one byte-encoded GF(2) symbol per byte, the same encoding the generic
// backend uses) so payload-carrying GF(2) simulations get the word-wise
// XOR path end to end. A rank update costs O(rank * cols / 64) word
// operations plus O(rank * extra) XOR-ed payload bytes.
//
// Memory behavior: surviving rows live in a matrix-owned arena allocated
// in bulk (at most cols rows can ever be retained), and elimination
// scratch is reused across calls, so the steady-state Add/WouldHelp path
// performs no allocations and never retains caller memory.
//
// The zero value is not usable; construct with NewBitMatrix or
// NewBitMatrixPayload.
type BitMatrix struct {
	cols  int
	extra int
	words int // words per packed row
	rows  []BitVec
	pay   [][]byte // payload parts, parallel to rows (nil when extra == 0)
	pivot []int

	arenaC   []uint64 // coefficient arena; rows are carved off its front
	arenaP   []byte   // payload arena
	scratchC BitVec   // reusable reduce buffer (coefficients)
}

// NewBitMatrix returns an empty GF(2) matrix with the given number of
// columns and no payload.
func NewBitMatrix(cols int) *BitMatrix {
	return NewBitMatrixPayload(cols, 0)
}

// NewBitMatrixPayload returns an empty GF(2) matrix with cols coefficient
// columns and extra augmented payload bytes per row.
func NewBitMatrixPayload(cols, extra int) *BitMatrix {
	if cols <= 0 {
		panic("linalg: cols must be positive")
	}
	if extra < 0 {
		panic("linalg: extra must be non-negative")
	}
	return &BitMatrix{cols: cols, extra: extra, words: (cols + 63) / 64}
}

// Cols returns the number of columns.
func (m *BitMatrix) Cols() int { return m.cols }

// Extra returns the number of augmented payload bytes per row.
func (m *BitMatrix) Extra() int { return m.extra }

// Words returns the number of 64-bit words per packed row.
func (m *BitMatrix) Words() int { return m.words }

// Rank returns the number of independent rows stored.
func (m *BitMatrix) Rank() int { return len(m.rows) }

// Full reports whether rank equals cols.
func (m *BitMatrix) Full() bool { return len(m.rows) == m.cols }

// reduce eliminates (row, pay) in place against the echelon rows and
// returns the pivot bit, or -1 if the row reduced to zero. A nil pay
// skips payload elimination (coefficient-only queries).
//
// The coefficient-only one- and two-word cases (k <= 128, the common
// simulation sizes) run branchless: the pivot-bit test becomes an
// all-ones/all-zeros mask, so the 50%-taken row-XOR branch — a
// guaranteed mispredict on random coded traffic — disappears from the
// inner loop.
func (m *BitMatrix) reduce(row BitVec, pay []byte) int {
	if pay == nil {
		switch m.words {
		case 1:
			r0 := row[0]
			for i, p := range m.pivot {
				mask := -((r0 >> uint(p)) & 1)
				r0 ^= m.rows[i][0] & mask
			}
			row[0] = r0
		case 2:
			r0, r1 := row[0], row[1]
			for i, p := range m.pivot {
				w := r0
				if p >= 64 {
					w = r1
				}
				mask := -((w >> (uint(p) % 64)) & 1)
				er := m.rows[i]
				r0 ^= er[0] & mask
				r1 ^= er[1] & mask
			}
			row[0], row[1] = r0, r1
		default:
			for i, p := range m.pivot {
				if row.Get(p) {
					row.Xor(m.rows[i])
				}
			}
		}
		return row.LowestSet()
	}
	for i, p := range m.pivot {
		if row.Get(p) {
			row.Xor(m.rows[i])
			subtle.XORBytes(pay, pay, m.pay[i])
		}
	}
	return row.LowestSet()
}

// allocRow carves one coefficient row (and payload row when extra > 0)
// off the arena, growing it in bulk on first use. At most cols rows are
// ever retained, so the arena is sized once and rows stay contiguous —
// the reduce loop walks them in allocation-order memory.
func (m *BitMatrix) allocRow() (BitVec, []byte) {
	if len(m.arenaC) < m.words {
		m.arenaC = make([]uint64, m.cols*m.words)
	}
	row := BitVec(m.arenaC[:m.words:m.words])
	m.arenaC = m.arenaC[m.words:]
	var pay []byte
	if m.extra > 0 {
		if len(m.arenaP) < m.extra {
			m.arenaP = make([]byte, m.cols*m.extra)
		}
		pay = m.arenaP[:m.extra:m.extra]
		m.arenaP = m.arenaP[m.extra:]
	}
	return row, pay
}

// insert places an already-reduced row with pivot bit p, keeping pivots
// strictly increasing. The row (and payload) are copied into the arena;
// the caller keeps ownership of its buffers.
func (m *BitMatrix) insert(row BitVec, pay []byte, p int) {
	if m.rows == nil {
		// Rank can only reach cols: size the bookkeeping once so inserts
		// never regrow (and the GC never rescans a growing pointer slice).
		m.rows = make([]BitVec, 0, m.cols)
		m.pivot = make([]int, 0, m.cols)
		if m.extra > 0 {
			m.pay = make([][]byte, 0, m.cols)
		}
	}
	rowC, rowP := m.allocRow()
	copy(rowC, row)
	at := len(m.rows)
	for i, q := range m.pivot {
		if q > p {
			at = i
			break
		}
	}
	m.rows = append(m.rows, nil)
	m.pivot = append(m.pivot, 0)
	copy(m.rows[at+1:], m.rows[at:])
	copy(m.pivot[at+1:], m.pivot[at:])
	m.rows[at] = rowC
	m.pivot[at] = p
	if m.extra > 0 {
		copy(rowP, pay)
		m.pay = append(m.pay, nil)
		copy(m.pay[at+1:], m.pay[at:])
		m.pay[at] = rowP
	}
}

// Add inserts the row if independent, reporting whether the rank
// increased. The input is consumed (reduced in place, then copied into
// the matrix arena on success); pass a copy if the caller needs it again.
// Payload-carrying matrices require AddPayload.
func (m *BitMatrix) Add(row BitVec) bool {
	if m.extra > 0 {
		panic("linalg: payload-carrying BitMatrix needs AddPayload")
	}
	return m.AddPayload(row, nil)
}

// AddPayload inserts the row plus its extra-length payload if the
// coefficient part is independent, reporting whether the rank increased.
// Both inputs are consumed (reduced in place); on success the surviving
// row is copied into the matrix arena, so the caller keeps ownership of
// its (now clobbered) buffers either way.
func (m *BitMatrix) AddPayload(row BitVec, pay []byte) bool {
	if len(pay) != m.extra {
		panic("linalg: payload width mismatch")
	}
	if m.Full() {
		return false // the row space is everything; nothing can help
	}
	if m.extra == 0 {
		pay = nil // no payload rows are kept; take the coefficient-only path
	}
	p := m.reduce(row, pay)
	if p < 0 {
		return false
	}
	m.insert(row, pay, p)
	return true
}

// WouldHelp reports whether the row is independent of the stored rows
// without modifying the matrix or the input. It reduces in a reusable
// scratch buffer: no allocation, no defensive copy for the caller.
func (m *BitMatrix) WouldHelp(row BitVec) bool {
	if m.Full() {
		return false
	}
	if m.scratchC == nil {
		m.scratchC = make(BitVec, m.words)
	}
	copy(m.scratchC, row)
	return m.reduce(m.scratchC, nil) >= 0
}

// Basis returns a copy of the i-th stored echelon row, 0 <= i < Rank().
func (m *BitMatrix) Basis(i int) BitVec {
	return m.rows[i].Clone()
}

// Row returns the i-th stored echelon row. The returned slice aliases
// internal storage and must not be modified.
func (m *BitMatrix) Row(i int) BitVec { return m.rows[i] }

// Payload returns the augmented payload of the i-th stored echelon row
// (nil when extra == 0). Aliases internal storage; must not be modified.
func (m *BitMatrix) Payload(i int) []byte {
	if m.extra == 0 {
		return nil
	}
	return m.pay[i]
}

// RandomCombination returns a uniformly random GF(2) combination of the
// stored rows (each row included independently with probability 1/2).
// It returns nil when the matrix is empty. Payload-carrying matrices
// combine payloads too via RandomCombinationInto; this convenience
// wrapper returns only the coefficient part.
func (m *BitMatrix) RandomCombination(rng *rand.Rand) BitVec {
	if len(m.rows) == 0 {
		return nil
	}
	out := make(BitVec, m.words)
	var pay []byte
	if m.extra > 0 {
		pay = make([]byte, m.extra)
	}
	m.RandomCombinationInto(rng, out, pay)
	return out
}

// RandomCombinationInto fills out (length Words) and pay (length Extra;
// nil when extra == 0) with a uniformly random combination of the stored
// rows, reusing the caller's buffers — the zero-allocation emit path. It
// reports false without drawing randomness when the matrix is empty.
// The random stream consumption (one Uint64 per stored row) is identical
// to the generic backend's gf.Rand-per-row draw over GF(2), so swapping
// backends preserves fixed-seed trajectories.
func (m *BitMatrix) RandomCombinationInto(rng *rand.Rand, out BitVec, pay []byte) bool {
	if len(m.rows) == 0 {
		return false
	}
	if len(out) != m.words {
		panic("linalg: combination width mismatch")
	}
	if len(pay) != m.extra {
		panic("linalg: combination payload width mismatch")
	}
	if m.extra == 0 {
		pay = nil
	}
	out.Zero()
	for i := range pay {
		pay[i] = 0
	}
	if m.extra == 0 {
		// Branchless accumulation for the common packed widths: the coin
		// flip becomes a mask, so the emit loop has no data-dependent
		// branches (one draw per row, exactly as the generic contract).
		switch m.words {
		case 1:
			var a0 uint64
			for _, row := range m.rows {
				mask := -(rng.Uint64() & 1)
				a0 ^= row[0] & mask
			}
			out[0] = a0
			return true
		case 2:
			var a0, a1 uint64
			for _, row := range m.rows {
				mask := -(rng.Uint64() & 1)
				a0 ^= row[0] & mask
				a1 ^= row[1] & mask
			}
			out[0], out[1] = a0, a1
			return true
		}
	}
	for i, row := range m.rows {
		if rng.Uint64()&1 == 1 {
			out.Xor(row)
			if pay != nil {
				subtle.XORBytes(pay, pay, m.pay[i])
			}
		}
	}
	return true
}

// Solve performs full back-substitution and returns the decoded
// payloads: a cols x extra byte matrix whose i-th row is the payload of
// unknown i. It returns ErrNotFullRank when Rank() < Cols. The stored
// rows are reduced in place (which preserves the row space, so further
// Adds remain correct).
func (m *BitMatrix) Solve() ([][]byte, error) {
	if m.extra == 0 {
		return nil, errors.New("linalg: BitMatrix has no payload to solve for")
	}
	if !m.Full() {
		return nil, ErrNotFullRank
	}
	// Pivots are already 1 over GF(2); eliminate above, bottom-up. With
	// full rank, pivot[i] == i for all i.
	for i := m.cols - 1; i >= 0; i-- {
		p := m.pivot[i]
		for j := 0; j < i; j++ {
			if m.rows[j].Get(p) {
				m.rows[j].Xor(m.rows[i])
				subtle.XORBytes(m.pay[j], m.pay[j], m.pay[i])
			}
		}
	}
	out := make([][]byte, m.cols)
	for i := range out {
		out[i] = append([]byte(nil), m.pay[i]...)
	}
	return out, nil
}
