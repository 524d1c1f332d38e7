package main

import (
	"math"
	"time"
)

// Host-speed calibration. The benchmark's host is a share of a machine whose
// speed drifts by up to ~2x over seconds to minutes as other tenants load
// it, and that drift, not the simulator, dominated run-to-run spread. So
// every timed step is bracketed by a short, fixed, repository-independent
// probe, and its wall time is rescaled to what it would have been on a
// host where the probe takes calibRef:
//
//	ref = wall * calibRef / mean(probe before, probe after)
//
// A change to the simulator moves wall and leaves the probe alone, so it
// moves ref by the same share; a change in host speed moves both.

// calibRef is the probe time of the reference host (about the probe's
// median on the 2-vCPU Xeon VM the benchmark was tuned on).
const calibRef = 4500 * time.Microsecond

// calibArena is the probe's working set: a single-cycle permutation walked
// by pointer chasing, sized past the private caches.
var calibArena = func() []uint32 {
	const n = 1 << 19
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
	}
	// Sattolo's algorithm over a fixed LCG: one cycle through every slot.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		a[i], a[j] = a[j], a[i]
	}
	return a
}()

// calibMap is the probe's hash-table half: about 8K entries, a working set
// the size of a private L2 cache.
var calibMap = func() map[uint64]uint64 {
	m := make(map[uint64]uint64, 8192)
	for i := uint64(0); i < 8192; i++ {
		m[i*2654435761] = i
	}
	return m
}()

// calibSink keeps the probe's result live.
var calibSink uint64

// calibrate times one probe and returns the geometric mean of its two
// halves. The first chases pointers through calibArena with branchy integer
// work in between; the second makes hash-table lookups in calibMap. Alone,
// the first moved by about half as much as the simulator's own swings on
// the pointer kernels, and the second, whose small hot set suffers most
// when a neighbour shares the core's caches, tracked those swings but
// jittered more. Of the probes tried (README.md), the pair tracked the
// simulator best overall.
func calibrate() time.Duration {
	t0 := time.Now()
	p := uint32(0)
	acc := uint64(1)
	for i := 0; i < 20000; i++ {
		p = calibArena[p]
		for k := 0; k < 24; k++ {
			if acc&1 == 0 {
				acc = acc/2 + uint64(p)
			} else {
				acc = 3*acc + 1
			}
		}
	}
	calibSink += acc + uint64(p)
	chase := time.Since(t0)

	t1 := time.Now()
	var sum uint64
	for i := uint64(0); i < 240000; i++ {
		k := (i * 7919 % 8192) * 2654435761
		sum += calibMap[k]
		if sum&3 == 0 {
			sum += calibMap[k+1]
		}
	}
	calibSink += sum
	lookup := time.Since(t1)
	return time.Duration(math.Sqrt(float64(chase) * float64(lookup)))
}

// refClock rescales consecutive timed steps to the reference host. Each
// probe serves as the "after" of one step and the "before" of the next.
type refClock struct {
	prev   time.Duration
	probes []float64 // every probe, in ms, for the report line
}

func newRefClock() *refClock {
	c := &refClock{}
	c.prev = c.probe()
	return c
}

func (c *refClock) probe() time.Duration {
	d := calibrate()
	c.probes = append(c.probes, float64(d.Nanoseconds())/1e6)
	return d
}

// after probes the host once more and returns d, the wall time of the step
// that just ended, at reference host speed.
func (c *refClock) after(d time.Duration) time.Duration {
	next := c.probe()
	ref := atRef(d, c.prev, next)
	c.prev = next
	return ref
}

// atRef rescales wall time d, measured between probes of before and after,
// to the reference host.
func atRef(d, before, after time.Duration) time.Duration {
	mean := (before + after) / 2
	if mean <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(calibRef) / float64(mean))
}
