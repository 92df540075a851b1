package main

import (
	"runtime/metrics"
	"time"
)

// allocBytes is the process's cumulative heap allocation
// (MemStats.TotalAlloc), read without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapInUse is the heap in use (MemStats.HeapInuse): live and unswept
// objects plus the unused part of their spans.
func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

// heapPeak samples the heap in use every heapPeakEvery until stopped and
// keeps the largest value: a trial's peak heap.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

const heapPeakEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	p := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := heapSamples()
		peak := heapInUse(s)
		tick := time.NewTicker(heapPeakEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, heapInUse(s))
			case <-p.stop:
				p.done <- max(peak, heapInUse(s))
				return
			}
		}
	}()
	return p
}

// end stops the sampler, waits for it to exit and returns the peak.
func (p *heapPeak) end() uint64 {
	close(p.stop)
	return <-p.done
}
