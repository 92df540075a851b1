package rlnc

import "fmt"

// GenConfig configures generation-based RLNC: the k messages are split
// into ⌈k/GenSize⌉ *generations* coded independently, the standard
// practical refinement of RLNC (Chou et al.). Smaller generations shrink
// the per-packet coefficient overhead from k·log2(q) to GenSize·log2(q)
// bits (plus a generation tag) and cut decoding cost from O(k³) to
// O(k·GenSize²), at the price of a coupon-collector effect *across*
// generations — the trade-off quantified by ablation A7.
type GenConfig struct {
	// Inner carries the field and payload length; Inner.K is ignored
	// (derived per generation).
	Inner Config
	// K is the total number of messages.
	K int
	// GenSize is the number of messages per generation (the last
	// generation may be smaller).
	GenSize int
}

// GenSizeError reports a generation size outside the valid range [1, K].
// It is a typed error so config-parsing layers (harness specs, command
// flags) can distinguish a bad -generations value from other failures.
type GenSizeError struct {
	// GenSize is the rejected generation size.
	GenSize int
	// K is the total message count the size was validated against.
	K int
}

func (e *GenSizeError) Error() string {
	return fmt.Sprintf("rlnc: generation size %d outside [1, %d]", e.GenSize, e.K)
}

func (c GenConfig) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("rlnc: k must be positive, got %d", c.K)
	}
	if c.GenSize <= 0 || c.GenSize > c.K {
		return &GenSizeError{GenSize: c.GenSize, K: c.K}
	}
	return nil
}

// Generations returns the number of generations.
func (c GenConfig) Generations() int { return (c.K + c.GenSize - 1) / c.GenSize }

// genBounds returns the global index range [lo, hi) of generation g.
func (c GenConfig) genBounds(g int) (lo, hi int) {
	lo = g * c.GenSize
	hi = lo + c.GenSize
	if hi > c.K {
		hi = c.K
	}
	return lo, hi
}

// GenK returns the message count of generation g — GenSize for all but
// possibly the last generation, 0 outside [0, Generations()). Wire codecs
// need it to size the one-coefficient-per-symbol expansion of a tagged
// packet.
func (c GenConfig) GenK(g int) int {
	if g < 0 || g >= c.Generations() {
		return 0
	}
	lo, hi := c.genBounds(g)
	return hi - lo
}

// NewGenNode returns an empty node in the generation layout: one
// independent decoder per generation, with every emitted packet tagged by
// the generation it codes. Inner.K is ignored (derived per generation).
func NewGenNode(cfg GenConfig) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inner := cfg.Inner
	inner.K = cfg.K
	if err := inner.validate(); err != nil {
		return nil, err
	}
	n := &Node{cfg: inner, genSize: cfg.GenSize, parts: make([]part, cfg.Generations())}
	for g := range n.parts {
		n.initPart(&n.parts[g], cfg.GenK(g))
	}
	return n, nil
}

// MessageBits returns the wire size of one generation-coded packet in
// bits: GenSize coefficients + payload symbols + the generation tag.
func (c GenConfig) MessageBits() int {
	bitsPerSym := 1
	for v := 2; v < c.Inner.Field.Order(); v <<= 1 {
		bitsPerSym++
	}
	r := c.Inner.PayloadLen
	if r == 0 {
		r = 1
	}
	tag := 1
	for v := 2; v < c.Generations(); v <<= 1 {
		tag++
	}
	return (c.GenSize+r)*bitsPerSym + tag
}
