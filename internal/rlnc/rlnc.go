// Package rlnc implements random linear network coding, the message content
// of algebraic gossip (paper Section 2, "Random Linear Network Coding").
//
// There are k initial messages x_1..x_k, each a vector of r symbols over
// F_q. Every transmitted packet is a random linear combination of all
// packets stored at the sender: it carries the k coefficients of the
// combination and the combined r-symbol payload, for a total of
// (k + r)·log2(q) bits. A node stores only packets that are linearly
// independent of what it already holds (helpful messages, Definition 3);
// once its coefficient matrix reaches rank k it solves the linear system
// and recovers all k initial messages.
//
// A node may also code the k messages in generations (GenConfig): ⌈k/g⌉
// independent decoders of g messages each, with every packet a
// combination within one generation and tagged with it. The paper's
// full-span protocol is the single-generation layout, which draws no
// generation pick.
//
// Three backends share one API: a generic finite-field backend carrying
// payloads, a packed GF(2) bitset backend used whenever the field has
// order 2, and a bit-sliced backend for every other binary extension
// field GF(2^m) — so both binary and multi-bit-symbol simulations get
// word-wise XOR elimination end to end (the sliced backend turns dst +=
// c*src into at most m² plane XORs instead of k table gathers).
// Helpfulness (and hence every stopping time) depends only on coefficient
// vectors, and all backends consume protocol randomness identically, so
// backend selection never changes fixed-seed trajectories.
//
// Memory contract for the hot path: EmitInto fills a caller-owned Packet
// whose backing arrays are reused, Receive/ReceiveOwned never retain
// packet memory (surviving rows are copied into matrix-owned arenas), and
// WouldHelp reduces in matrix scratch. A protocol that recycles packets
// through a freelist therefore runs the steady-state send/receive cycle
// with zero allocations.
package rlnc

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"algossip/internal/gf"
	"algossip/internal/linalg"
)

// ErrCannotDecode is returned by Decode before the node has accumulated k
// independent equations.
var ErrCannotDecode = errors.New("rlnc: rank below k, cannot decode yet")

// Config describes one RLNC deployment: the field, the number of unknowns
// k, and the payload length r in field symbols.
type Config struct {
	// Field is the coefficient field F_q.
	Field gf.Field
	// K is the number of initial messages (unknowns).
	K int
	// PayloadLen is r, the number of field symbols per message payload.
	// Ignored in rank-only mode.
	PayloadLen int
	// RankOnly drops payloads and tracks only coefficient vectors.
	RankOnly bool
	// ForceGeneric disables the packed GF(2) and bit-sliced GF(2^m)
	// backends (testing and cross-validation only — the backends are
	// trajectory-identical, the generic one is just slower).
	ForceGeneric bool
}

func (c Config) validate() error {
	if c.Field == nil {
		return errors.New("rlnc: nil field")
	}
	if c.K <= 0 {
		return fmt.Errorf("rlnc: k must be positive, got %d", c.K)
	}
	if !c.RankOnly && c.PayloadLen <= 0 {
		return fmt.Errorf("rlnc: payload length must be positive, got %d", c.PayloadLen)
	}
	return nil
}

// bitMode reports whether the packed GF(2) backend applies. Since the
// bit backend learned to carry payload rows, every order-2 configuration
// qualifies — rank-only or not.
func (c Config) bitMode() bool { return c.Field.Order() == 2 && !c.ForceGeneric }

// slicedField returns the field when the bit-sliced GF(2^m) backend
// applies (any binary extension field of order > 2, unless ForceGeneric),
// nil otherwise. GF(2) stays on the dedicated bit backend.
func (c Config) slicedField() *gf.GF2m {
	if c.ForceGeneric || c.bitMode() {
		return nil
	}
	f, ok := c.Field.(*gf.GF2m)
	if !ok || f.Order() == 2 {
		return nil
	}
	return f
}

// extra returns the augmented payload width in bytes (0 in rank-only mode).
func (c Config) extra() int {
	if c.RankOnly {
		return 0
	}
	return c.PayloadLen
}

// Message is an initial (decoded) message: its index in 1..k (zero-based
// here) and its payload.
type Message struct {
	// Index identifies the unknown x_{Index+1}.
	Index int
	// Payload holds r field symbols, one byte-encoded symbol per byte.
	Payload []byte
}

// Packet is one transmitted coded message. The zero value is valid: the
// emit path (EmitInto) sizes the backing arrays on first use and reuses
// them afterwards, which is what makes pooled packets allocation-free.
type Packet struct {
	// Gen is the generation the coefficients refer to: always 0 from a
	// full-span node, in [0, ⌈k/g⌉) from a generation layout.
	Gen int
	// Coeffs has length k (generic backend). Nil in bit and sliced modes.
	Coeffs []gf.Elem
	// Bits is the packed k-bit coefficient vector (bit mode). Nil otherwise.
	Bits linalg.BitVec
	// Sliced is the bit-sliced coefficient vector (sliced GF(2^m) mode):
	// m planes of SlicedWords(k) packed words. Nil otherwise.
	Sliced linalg.SlicedVec
	// Payload is the combined payload row, combined with the field's bulk
	// kernels (nil in rank-only and sliced modes).
	Payload []byte
	// SlicedPay is the bit-sliced payload row (sliced mode with payloads):
	// m planes of SlicedWords(r) packed words. Nil otherwise.
	SlicedPay linalg.SlicedVec
	// Corrupt marks a packet whose payload no longer matches its coefficient
	// vector — the detectable-pollution model for Byzantine senders. The
	// receive screens reject such packets (after the verification work the
	// protocol layer accounts for); honest emit paths always clear it.
	Corrupt bool
}

// IsZero reports whether the packet's coefficient vector is all-zero (such
// packets carry no information and are never helpful).
func (p *Packet) IsZero() bool {
	if p.Bits != nil {
		return p.Bits.IsZero()
	}
	if p.Sliced != nil {
		return p.Sliced.IsZero()
	}
	return gf.IsZeroVector(p.Coeffs)
}

// ExpandCoeffs returns the packet's coefficient vector in generic []Elem
// form, expanding packed bits or sliced planes when needed — the
// wire-format bridge for transports that serialize one coefficient per
// symbol. It allocates for bit and sliced packets; boundary code only.
func (p *Packet) ExpandCoeffs(k int) []gf.Elem {
	if p.Bits != nil {
		out := make([]gf.Elem, k)
		for i := range out {
			if p.Bits.Get(i) {
				out[i] = 1
			}
		}
		return out
	}
	if p.Sliced != nil {
		b := expandSliced(p.Sliced, k)
		out := make([]gf.Elem, k)
		for i, x := range b {
			out[i] = gf.Elem(x)
		}
		return out
	}
	return p.Coeffs
}

// ExpandPayload returns the packet's payload row in byte-encoded wire
// form for a payload width of r symbols, unpacking sliced planes when
// needed. A non-positive width returns nil even for a payload-carrying
// sliced packet (a rank-only peer requesting zero symbols — the
// cross-backend Adapt path). It allocates for sliced packets; boundary
// code only.
func (p *Packet) ExpandPayload(r int) []byte {
	if p.SlicedPay == nil {
		return p.Payload
	}
	if r <= 0 {
		return nil
	}
	return expandSliced(p.SlicedPay, r)
}

// expandSliced unpacks a plane-major sliced row of n symbols into bytes,
// inferring m from the slice length (the field is not needed: the layout
// alone determines the symbols).
func expandSliced(v linalg.SlicedVec, n int) []byte {
	out := make([]byte, n)
	words := gf.SlicedWords(n)
	m := len(v) / words
	for i := range out {
		w, b := i/64, uint(i)%64
		var s byte
		for j := 0; j < m; j++ {
			s |= byte((v[j*words+w]>>b)&1) << uint(j)
		}
		out[i] = s
	}
	return out
}

// PackCoeffs packs a generic GF(2) coefficient vector into a BitVec. It
// reports false when any coefficient is not 0 or 1 (the vector is not a
// valid GF(2) row). Boundary code only; the hot path stays packed.
func PackCoeffs(coeffs []gf.Elem) (linalg.BitVec, bool) {
	v := linalg.NewBitVec(len(coeffs))
	for i, c := range coeffs {
		switch c {
		case 0:
		case 1:
			v.Set(i)
		default:
			return nil, false
		}
	}
	return v, true
}

// Node is the per-gossip-node RLNC state: the matrices of stored
// equations, one per generation. A full-span node (NewNode) codes all k
// messages together as one generation stored inline; a generation layout
// (NewGenNode) holds ⌈k/g⌉ independent decoders and tags every packet
// with the generation it codes. It is not safe for concurrent use; the
// concurrent runtime wraps it.
type Node struct {
	cfg     Config // K is the total message count in either layout
	genSize int    // messages per generation; 0 for a full-span node
	parts   []part // one decoder per generation; aliases one when full-span
	one     [1]part

	// rank and nonEmpty cache the sums over parts: wake loops query
	// Rank/CanDecode on every contact, and recomputing them as sums over
	// generations dominated profiles at n = 10^5.
	rank     int
	nonEmpty int

	scratchBits linalg.BitVec // reusable Receive buffer (bit mode)
	scratchPay  []byte        // reusable Receive buffer (payload)
}

// part is one generation's decoder over k messages. Exactly one backend
// is non-nil, and it is the same backend in every part of a node.
type part struct {
	k, rank int
	mat     *linalg.RankMatrix   // generic backend
	bit     *linalg.BitMatrix    // bit backend (with payload rows when configured)
	slc     *linalg.SlicedMatrix // bit-sliced GF(2^m) backend
}

// NewNode returns an empty full-span node for the given configuration.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg}
	n.parts = n.one[:]
	n.initPart(&n.parts[0], cfg.K)
	return n, nil
}

// MustNewNode is NewNode for known-good configurations; it panics on error.
func MustNewNode(cfg Config) *Node {
	n, err := NewNode(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// initPart selects pt's backend for a generation of k messages.
func (n *Node) initPart(pt *part, k int) {
	pt.k = k
	switch {
	case n.cfg.bitMode():
		pt.bit = linalg.NewBitMatrixPayload(k, n.cfg.extra())
	case n.cfg.slicedField() != nil:
		pt.slc = linalg.NewSlicedMatrix(n.cfg.slicedField(), k, n.cfg.extra())
	default:
		pt.mat = linalg.NewRankMatrix(n.cfg.Field, k, n.cfg.extra())
	}
}

// Config returns the node's configuration; K is the total message count
// in either layout.
func (n *Node) Config() Config { return n.cfg }

// GenK returns the message count of generation g — K for a full-span
// node's only generation, 0 outside the layout. Wire codecs size the
// one-coefficient-per-symbol expansion of a tagged packet with it.
func (n *Node) GenK(g int) int {
	if g < 0 || g >= len(n.parts) {
		return 0
	}
	return n.parts[g].k
}

// BitMode reports whether this node uses the packed GF(2) backend (its
// packets carry Bits instead of Coeffs).
func (n *Node) BitMode() bool { return n.parts[0].bit != nil }

// SlicedMode reports whether this node uses the bit-sliced GF(2^m)
// backend (its packets carry Sliced/SlicedPay instead of Coeffs/Payload).
func (n *Node) SlicedMode() bool { return n.parts[0].slc != nil }

// Backend returns the selected backend plus the kernel tier its inner
// loops dispatch to, e.g. "sliced/GF(256) gf-tier=gfni" — the string
// surfaced by status endpoints so perf numbers are attributable to both
// selection layers.
func (n *Node) Backend() string {
	kind := "generic"
	switch {
	case n.BitMode():
		kind = "bit"
	case n.SlicedMode():
		kind = "sliced"
	}
	return fmt.Sprintf("%s/%s gf-tier=%s", kind, n.cfg.Field.Name(), gf.ActiveTier())
}

// Rank returns the dimension of the node's equation space, summed over
// generations.
func (n *Node) Rank() int { return n.rank }

// CanDecode reports whether the node has reached rank k.
func (n *Node) CanDecode() bool { return n.rank == n.cfg.K }

// grew records a one-rank gain of part pt in the cached totals.
func (n *Node) grew(pt *part) {
	pt.rank++
	n.rank++
	if pt.rank == 1 {
		n.nonEmpty++
	}
}

// Seed installs an initial message at this node: the trivial equation
// x_{msg.Index} = msg.Payload, in the generation holding that index. In
// rank-only mode the payload may be nil.
func (n *Node) Seed(msg Message) {
	if msg.Index < 0 || msg.Index >= n.cfg.K {
		panic(fmt.Sprintf("rlnc: seed index %d out of range [0,%d)", msg.Index, n.cfg.K))
	}
	var payload []byte
	if !n.cfg.RankOnly {
		if len(msg.Payload) != n.cfg.PayloadLen {
			panic(fmt.Sprintf("rlnc: payload length %d, want %d", len(msg.Payload), n.cfg.PayloadLen))
		}
		payload = msg.Payload
	}
	g, i := 0, msg.Index
	if n.genSize > 0 {
		g, i = i/n.genSize, i%n.genSize
	}
	pt := &n.parts[g]
	var helpful bool
	switch {
	case pt.bit != nil:
		v := linalg.NewBitVec(pt.k)
		v.Set(i)
		// AddPayload consumes its inputs but copies survivors into the
		// matrix arena, so the caller's msg.Payload is cloned first.
		helpful = pt.bit.AddPayload(v, append([]byte(nil), payload...))
	case pt.slc != nil:
		// The unit vector e_i has the single symbol value 1: only bit
		// plane 0 carries a bit. The payload packs through the field.
		v := make(linalg.SlicedVec, pt.slc.Stride())
		v[i/64] |= 1 << (uint(i) % 64)
		var pay linalg.SlicedVec
		if pt.slc.PayStride() > 0 {
			pay = make(linalg.SlicedVec, pt.slc.PayStride())
			n.cfg.slicedField().PackSliced(pay, payload)
		}
		helpful = pt.slc.AddOwned(v, pay)
	default:
		coeffs := make([]gf.Elem, pt.k)
		coeffs[i] = 1
		helpful = pt.mat.Add(coeffs, payload)
	}
	if helpful {
		n.grew(pt)
	}
}

// pick draws the generation the next emission codes from. A generation
// layout draws one IntN, uniform over its non-empty generations; a
// full-span node draws nothing. It reports false, drawing nothing, when
// the node stores nothing yet.
func (n *Node) pick(rng *rand.Rand) (int, bool) {
	if n.rank == 0 {
		return 0, false
	}
	if n.genSize == 0 {
		return 0, true
	}
	skip := rng.IntN(n.nonEmpty)
	for g := range n.parts {
		if n.parts[g].rank == 0 {
			continue
		}
		if skip == 0 {
			return g, true
		}
		skip--
	}
	return 0, true // unreachable: nonEmpty counts the non-empty parts
}

// Emit builds the packet an algebraic-gossip node transmits: a uniformly
// random linear combination of all stored packets (of one uniformly
// random non-empty generation, in a generation layout). It returns nil
// when the node stores nothing yet (rank 0). Allocates a fresh packet per
// call; hot paths use EmitInto with a pooled packet instead.
func (n *Node) Emit(rng *rand.Rand) *Packet {
	p := &Packet{}
	if !n.EmitInto(rng, p) {
		return nil
	}
	return p
}

// EmitInto fills p with the packet Emit would build, reusing p's backing
// arrays (reslicing or growing them, across generations of different
// sizes too). It reports false — drawing no randomness and leaving p's
// contents unspecified — when the node stores nothing yet. The emitted
// trajectory is identical to Emit's.
func (n *Node) EmitInto(rng *rand.Rand, p *Packet) bool {
	g, ok := n.pick(rng)
	if !ok {
		return false
	}
	pt := &n.parts[g]
	p.Gen, p.Corrupt = g, false
	if pt.slc != nil {
		p.Coeffs, p.Bits, p.Payload = nil, nil, nil
		p.Sliced = resize(p.Sliced, pt.slc.Stride())
		p.SlicedPay = resize(p.SlicedPay, pt.slc.PayStride())
		return pt.slc.RandomCombinationInto(rng, p.Sliced, p.SlicedPay)
	}
	p.Sliced, p.SlicedPay = nil, nil
	p.Payload = resize(p.Payload, n.cfg.extra())
	if pt.bit != nil {
		p.Coeffs = nil
		p.Bits = resize(p.Bits, pt.bit.Words())
		return pt.bit.RandomCombinationInto(rng, p.Bits, p.Payload)
	}
	p.Bits = nil
	p.Coeffs = resize(p.Coeffs, pt.k)
	return pt.mat.RandomCombinationInto(rng, p.Coeffs, p.Payload)
}

// resize returns s resliced to length n, growing it only when its
// capacity is short; n == 0 returns nil.
func resize[S ~[]E, E any](s S, n int) S {
	switch {
	case n == 0:
		return nil
	case cap(s) >= n:
		return s[:n]
	}
	return make(S, n)
}

// SkipEmit consumes exactly the randomness EmitInto would draw — the
// generation pick, then one coefficient draw per stored row of the picked
// generation — without building the packet. It reports false (drawing
// nothing) when the node stores nothing yet, mirroring EmitInto's return.
// Simulators call it when the packet's fate is already determined (e.g.
// the receiver is at full rank, where any combination is unhelpful), so
// the trajectory-pinned random stream advances identically while the
// combination work is skipped.
func (n *Node) SkipEmit(rng *rand.Rand) bool {
	g, ok := n.pick(rng)
	if !ok {
		return false
	}
	pt := &n.parts[g]
	if pt.mat == nil {
		// Both packed backends draw one Uint64 per stored row (IntN of a
		// power-of-two order is exactly one masked Uint64).
		for i := 0; i < pt.rank; i++ {
			rng.Uint64()
		}
		return true
	}
	for i := 0; i < pt.rank; i++ {
		gf.Rand(n.cfg.Field, rng)
	}
	return true
}

// EmitReplayInto fills p with a copy of the first stored echelon row of
// the node's first non-empty generation — a syntactically valid packet
// that is never innovative to anyone who has heard this node before: the
// non-innovative replay behavior of a Byzantine sender. It draws no
// randomness (replay is a fixed function of state, so adversarial trials
// stay deterministic without touching the protocol's pinned random
// stream) and reports false when the node stores nothing yet. The row is
// copied, not aliased: receivers may clobber owned packets, and the
// matrix mutates its rows on later inserts.
func (n *Node) EmitReplayInto(p *Packet) bool {
	g := 0
	for g < len(n.parts) && n.parts[g].rank == 0 {
		g++
	}
	if g == len(n.parts) {
		return false
	}
	pt := &n.parts[g]
	p.Gen, p.Corrupt = g, false
	if pt.slc != nil {
		p.Coeffs, p.Bits, p.Payload = nil, nil, nil
		p.Sliced = append(p.Sliced[:0], pt.slc.Row(0)...)
		if pt.slc.PayStride() > 0 {
			p.SlicedPay = append(p.SlicedPay[:0], pt.slc.Payload(0)...)
		} else {
			p.SlicedPay = nil
		}
		return true
	}
	p.Sliced, p.SlicedPay = nil, nil
	var pay []byte
	if pt.bit != nil {
		p.Coeffs = nil
		p.Bits = append(p.Bits[:0], pt.bit.Row(0)...)
		pay = pt.bit.Payload(0)
	} else {
		p.Bits = nil
		p.Coeffs = append(p.Coeffs[:0], pt.mat.Row(0)...)
		pay = pt.mat.Payload(0)
	}
	if n.cfg.extra() > 0 {
		p.Payload = append(p.Payload[:0], pay...)
	} else {
		p.Payload = nil
	}
	return true
}

// target returns the decoder a delivered packet's generation tag names,
// or nil when the packet is nil, corrupt, all-zero or tagged outside the
// layout — tags arrive from the wire, so a bad one is an input error.
func (n *Node) target(p *Packet) *part {
	if p == nil || p.Corrupt || p.IsZero() || p.Gen < 0 || p.Gen >= len(n.parts) {
		return nil
	}
	return &n.parts[p.Gen]
}

// carries reports whether p's coefficient arrays belong to pt's backend.
func (pt *part) carries(p *Packet) bool {
	switch {
	case pt.slc != nil:
		return p.Sliced != nil
	case pt.bit != nil:
		return p.Bits != nil
	}
	return p.Coeffs != nil
}

// Receive processes an incoming packet and reports whether it was helpful,
// i.e. increased the node's rank (Definition 3). Unhelpful packets are
// discarded, exactly as in the paper. The packet is neither modified nor
// retained (reduction happens in node-owned scratch); callers that own
// the packet and want to skip that defensive copy use ReceiveOwned.
//
// Malformed packets — a generation tag outside the layout, or
// coefficient/payload widths that do not match the tagged generation —
// are reported unhelpful, never panicked on. Coefficient arrays of
// another backend are screened the same way in a generation layout; on a
// full-span node they panic, since a full-span link carries one field end
// to end and wire boundaries convert with Adapt.
func (n *Node) Receive(p *Packet) bool { return n.receive(p, false) }

// ReceiveOwned is Receive for callers that own the packet (pooled hot
// path): reduction happens directly in the packet's backing arrays,
// clobbering their contents, but the arrays are never retained — the
// caller recycles the packet afterwards. Helpfulness, rank evolution,
// randomness and screening are identical to Receive.
func (n *Node) ReceiveOwned(p *Packet) bool { return n.receive(p, true) }

func (n *Node) receive(p *Packet, owned bool) bool {
	pt := n.target(p)
	if pt == nil {
		return false
	}
	if !pt.carries(p) {
		if n.genSize == 0 {
			panic("rlnc: packet of another backend delivered to a full-span node (use Adapt at wire boundaries)")
		}
		return false
	}
	var helpful bool
	switch {
	case pt.slc != nil:
		if !pt.validSliced(p.Sliced) {
			return false
		}
		var pay linalg.SlicedVec
		if ps := pt.slc.PayStride(); ps > 0 {
			if len(p.SlicedPay) != ps {
				return false // malformed payload width
			}
			pay = p.SlicedPay
		}
		if owned {
			helpful = pt.slc.AddOwned(p.Sliced, pay)
		} else {
			// Add reduces in matrix-owned scratch: the packet is neither
			// modified nor retained.
			helpful = pt.slc.Add(p.Sliced, pay)
		}
	case pt.bit != nil:
		pay, ok := n.payload(p)
		if !ok || !pt.validBits(p.Bits) {
			return false
		}
		bits := p.Bits
		if !owned {
			n.scratchBits = append(n.scratchBits[:0], bits...)
			bits = n.scratchBits
			if pay != nil {
				n.scratchPay = append(n.scratchPay[:0], pay...)
				pay = n.scratchPay
			}
		}
		helpful = pt.bit.AddPayload(bits, pay)
	default:
		// Malformed packets (wrong coefficient or payload width) can arrive
		// from the network; reject them instead of letting the eliminator
		// panic.
		pay, ok := n.payload(p)
		if !ok || len(p.Coeffs) != pt.k {
			return false
		}
		if owned {
			helpful = pt.mat.AddOwned(p.Coeffs, pay)
		} else {
			helpful = pt.mat.Add(p.Coeffs, pay)
		}
	}
	if helpful {
		n.grew(pt)
	}
	return helpful
}

// payload returns p's byte payload row checked against the configured
// width: nil in rank-only mode, and ok == false when the width is wrong.
func (n *Node) payload(p *Packet) (pay []byte, ok bool) {
	extra := n.cfg.extra()
	if extra == 0 {
		return nil, true
	}
	return p.Payload, len(p.Payload) == extra
}

// WouldHelp reports whether the packet would increase this node's rank,
// without storing it. The query reduces in matrix scratch: no allocation,
// no defensive copy, and the packet is not modified. Malformed packets of
// any kind report false.
func (n *Node) WouldHelp(p *Packet) bool {
	pt := n.target(p)
	switch {
	case pt == nil:
		return false
	case pt.slc != nil:
		return pt.validSliced(p.Sliced) && pt.slc.WouldHelp(p.Sliced)
	case pt.bit != nil:
		return pt.validBits(p.Bits) && pt.bit.WouldHelp(p.Bits)
	}
	return len(p.Coeffs) == pt.k && pt.mat.WouldHelp(p.Coeffs)
}

// validBits reports whether a bit-mode coefficient vector has exactly the
// packed width for the part's k unknowns with no stray bits past index
// k-1 — the same malformed-packet screen the generic path applies to
// Coeffs/Payload.
func (pt *part) validBits(v linalg.BitVec) bool {
	words := (pt.k + 63) / 64
	if len(v) != words {
		return false
	}
	if rem := pt.k % 64; rem != 0 && v[words-1]>>uint(rem) != 0 {
		return false
	}
	return true
}

// validSliced is the sliced-mode malformed-packet screen: the vector must
// have exactly m planes of SlicedWords(k) words with no stray bits past
// column k-1 in any plane.
func (pt *part) validSliced(v linalg.SlicedVec) bool {
	if len(v) != pt.slc.Stride() {
		return false
	}
	words := pt.slc.Words()
	if rem := pt.k % 64; rem != 0 {
		for j := words - 1; j < len(v); j += words {
			if v[j]>>uint(rem) != 0 {
				return false
			}
		}
	}
	return true
}

// Adapt converts a wire-format packet into this node's native
// representation for its tagged generation: a generic-coefficient packet
// arriving at a bit-mode node is packed (rejecting vectors with non-GF(2)
// symbols by returning nil), one arriving at a sliced-mode node is
// bit-sliced (symbols are masked to m bits, the padded-table semantics of
// the byte kernels), a bit or sliced packet arriving at a generic node is
// expanded, and a packet already in native form is returned unchanged.
// Malformed packets — nil, a tag outside the layout, wrong lengths —
// return nil. Transports that pin a one-coefficient-per-symbol wire
// format call this before Receive.
func (n *Node) Adapt(p *Packet) *Packet {
	if p == nil || p.Gen < 0 || p.Gen >= len(n.parts) {
		return nil
	}
	pt := &n.parts[p.Gen]
	switch {
	case pt.slc != nil:
		if p.Sliced != nil {
			return p
		}
		if p.Bits != nil || len(p.Coeffs) != pt.k {
			return nil // a bit-mode packet can only come from a mismatched field
		}
		f := n.cfg.slicedField()
		out := &Packet{Gen: p.Gen, Sliced: make(linalg.SlicedVec, pt.slc.Stride()), Corrupt: p.Corrupt}
		raw := make([]byte, pt.k)
		for i, c := range p.Coeffs {
			raw[i] = byte(c)
		}
		f.PackSliced(out.Sliced, raw)
		if extra := n.cfg.extra(); extra > 0 {
			if len(p.Payload) != extra {
				return nil
			}
			out.SlicedPay = make(linalg.SlicedVec, pt.slc.PayStride())
			f.PackSliced(out.SlicedPay, p.Payload)
		}
		return out
	case pt.bit != nil:
		if p.Bits != nil {
			return p
		}
		if p.Sliced != nil || len(p.Coeffs) != pt.k {
			return nil
		}
		bits, ok := PackCoeffs(p.Coeffs)
		if !ok {
			return nil
		}
		return &Packet{Gen: p.Gen, Bits: bits, Payload: p.Payload, Corrupt: p.Corrupt}
	case p.Bits != nil || p.Sliced != nil:
		return &Packet{Gen: p.Gen, Coeffs: p.ExpandCoeffs(pt.k), Payload: p.ExpandPayload(n.cfg.extra()), Corrupt: p.Corrupt}
	}
	return p
}

// HelpfulTo reports whether this node is a *helpful node* for other
// (Definition 3): whether some combination this node can construct is
// independent of everything other has — equivalently, whether this node's
// equation space is not contained in other's. Both nodes must share one
// configuration and layout; the test runs generation by generation.
func (n *Node) HelpfulTo(other *Node) bool {
	for g := range n.parts {
		a, b := &n.parts[g], &other.parts[g]
		// Row views are safe here: WouldHelp reduces in scratch and never
		// mutates its input.
		for i := 0; i < a.rank; i++ {
			var helps bool
			switch {
			case a.bit != nil:
				helps = b.bit.WouldHelp(a.bit.Row(i))
			case a.slc != nil:
				helps = b.slc.WouldHelp(a.slc.Row(i))
			default:
				helps = b.mat.WouldHelp(a.mat.Row(i))
			}
			if helps {
				return true
			}
		}
	}
	return false
}

// Decode solves the linear systems and returns all k initial messages in
// global index order. It returns ErrCannotDecode until every generation
// has full rank, and an error in rank-only mode (there are no payloads to
// recover).
func (n *Node) Decode() ([]Message, error) {
	if n.cfg.RankOnly {
		return nil, errors.New("rlnc: decode unavailable in rank-only mode")
	}
	if !n.CanDecode() {
		return nil, ErrCannotDecode
	}
	out := make([]Message, 0, n.cfg.K)
	for g := range n.parts {
		pt := &n.parts[g]
		var payloads [][]byte
		var err error
		switch {
		case pt.bit != nil:
			payloads, err = pt.bit.Solve()
		case pt.slc != nil:
			payloads, err = pt.slc.Solve()
		default:
			payloads, err = pt.mat.Solve()
		}
		if err != nil {
			return nil, fmt.Errorf("rlnc: decode: %w", err)
		}
		// Generations cover consecutive index ranges in order, so the
		// running count is the global index.
		for _, pay := range payloads {
			out = append(out, Message{Index: len(out), Payload: pay})
		}
	}
	return out, nil
}
