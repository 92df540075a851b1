package main

import (
	"time"

	"algossip/internal/core"
	"algossip/internal/gf"
	"algossip/internal/linalg"
)

// probeReps is how many timed repetitions each probe takes; the probe
// reports their median.
const probeReps = 7

// repeatFor calls body in batches of doubling size until one batch takes
// at least d, and returns that batch's mean time per call. Batching keeps
// the clock reads out of the per-call figure for nanosecond-scale bodies.
func repeatFor(d time.Duration, body func()) time.Duration {
	for n := 1; ; n *= 2 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body()
		}
		if el := time.Since(t0); el >= d {
			return el / time.Duration(n)
		}
	}
}

// randomBytes fills a length-n slice with field elements below q.
func randomBytes(n, q int, seed uint64) []byte {
	rng := core.NewRand(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.IntN(q))
	}
	return out
}

// probeLinalg times the two matrix operations of the coded hot path at the
// workload's row shape (k coefficients over GF(q), r payload bytes):
// Add, averaged over filling an empty matrix to full rank with random
// rows, and RandomCombinationInto on the full matrix. It returns
// microseconds per call.
func probeLinalg(q, k, r int, seed uint64) (addUS, combineUS float64) {
	if q == 2 {
		return probeBitMatrix(k, r, seed)
	}
	f := gf.MustNew(q).(*gf.GF2m)
	rows := make([]linalg.SlicedVec, k)
	pays := make([]linalg.SlicedVec, k)
	for i := range rows {
		rows[i] = make(linalg.SlicedVec, f.M()*gf.SlicedWords(k))
		f.PackSliced(rows[i], randomBytes(k, q, core.SplitSeed(seed, uint64(2*i))))
		if r > 0 {
			pays[i] = make(linalg.SlicedVec, f.M()*gf.SlicedWords(r))
			f.PackSliced(pays[i], randomBytes(r, q, core.SplitSeed(seed, uint64(2*i+1))))
		}
	}
	var full *linalg.SlicedMatrix
	var adds, combines []float64
	for rep := 0; rep < probeReps; rep++ {
		per := repeatFor(10*time.Millisecond, func() {
			m := linalg.NewSlicedMatrix(f, k, r)
			for i := range rows {
				m.Add(rows[i], pays[i])
			}
			full = m
		})
		adds = append(adds, per.Seconds()*1e6/float64(k))
	}
	out := make(linalg.SlicedVec, full.Stride())
	var pay linalg.SlicedVec
	if r > 0 {
		pay = make(linalg.SlicedVec, full.PayStride())
	}
	rng := core.NewRand(seed)
	for rep := 0; rep < probeReps; rep++ {
		per := repeatFor(10*time.Millisecond, func() { full.RandomCombinationInto(rng, out, pay) })
		combines = append(combines, per.Seconds()*1e6)
	}
	return median(adds), median(combines)
}

// probeBitMatrix is probeLinalg for GF(2), whose rows are bit-packed.
func probeBitMatrix(k, r int, seed uint64) (addUS, combineUS float64) {
	rng := core.NewRand(seed)
	rows := make([]linalg.BitVec, k)
	pays := make([][]byte, k)
	for i := range rows {
		rows[i] = linalg.NewBitVec(k)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64()
		}
		if rem := k % 64; rem != 0 {
			rows[i][len(rows[i])-1] &= 1<<rem - 1
		}
		if r > 0 {
			pays[i] = randomBytes(r, 256, rng.Uint64())
		}
	}
	row := linalg.NewBitVec(k)
	pay := make([]byte, r)
	var full *linalg.BitMatrix
	var adds, combines []float64
	for rep := 0; rep < probeReps; rep++ {
		per := repeatFor(10*time.Millisecond, func() {
			m := linalg.NewBitMatrixPayload(k, r)
			for i := range rows {
				copy(row, rows[i])
				copy(pay, pays[i])
				m.AddPayload(row, pay)
			}
			full = m
		})
		adds = append(adds, per.Seconds()*1e6/float64(k))
	}
	var outPay []byte
	if r > 0 {
		outPay = pay
	}
	for rep := 0; rep < probeReps; rep++ {
		per := repeatFor(10*time.Millisecond, func() { full.RandomCombinationInto(rng, row, outPay) })
		combines = append(combines, per.Seconds()*1e6)
	}
	return median(adds), median(combines)
}

// probeAddMul measures the active tier's AddMulSlice throughput over GF(q)
// on r-byte rows, in GB/s.
func probeAddMul(q, r int, seed uint64) float64 {
	f := gf.MustNew(q)
	src := randomBytes(r, q, seed)
	dst := randomBytes(r, q, core.SplitSeed(seed, 1))
	c := gf.Elem(q - 1)
	var rates []float64
	for rep := 0; rep < probeReps; rep++ {
		per := repeatFor(10*time.Millisecond, func() { f.AddMulSlice(dst, src, c) })
		rates = append(rates, float64(r)/per.Seconds()/1e9)
	}
	return median(rates)
}
