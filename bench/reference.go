package main

import (
	"sort"
	"time"
)

// reference is the benchmark's yardstick for how fast the machine is
// while a run lasts. Even CPU time (clock.go) is not the same from run to
// run on a shared host: when the host's other tenants are busy, every
// workload here costs 20 % more CPU for minutes at a time, and several
// times more at the worst, whatever the program does. So each run
// interleaves a fixed kernel with its operations, never inside a timed
// one, and every timing it reports is multiplied by
// refNominal ÷ the kernel's median time in that run: a timing reads as
// milliseconds on a machine that runs the kernel in refNominal. The
// kernel is no part of the program under test, so a change to the program
// moves a scaled timing exactly as it moves the raw one.
//
// The kernel is branchy work on some 50 KiB (map updates and sorts),
// because that followed the program's own slowdown most closely of the
// kernels tried: a dependent arithmetic chain barely moves with the host,
// and a random walk over 256 KiB or more swings by a quarter on its own,
// with the cache the last operation and the host's other tenants left it.
type reference struct {
	last stamp
	us   []float64
	m    map[uint64]uint64
	buf  []int
	sink uint64
}

const (
	// refEvery is the CPU time between two runs of the kernel, which
	// keeps its cost near 2 % of a run.
	refEvery = 10 * time.Millisecond
	// refNominal is what the kernel takes on the quiet host the README's
	// numbers were taken on.
	refNominal = 250 * time.Microsecond
)

func newReference() *reference {
	return &reference{
		m:   make(map[uint64]uint64, 1024),
		buf: make([]int, 0, 512),
	}
}

// sample runs the kernel if refEvery has passed since it last ran. It is
// called between operations. A nil reference does nothing.
func (r *reference) sample() {
	if r == nil {
		return
	}
	t0 := now()
	if len(r.us) > 0 && time.Duration(t0-r.last) < refEvery {
		return
	}
	r.kernel()
	r.last = now()
	r.us = append(r.us, usOf(time.Duration(r.last-t0)))
}

func (r *reference) kernel() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 6000; i++ {
		r.m[next()&1023]++
	}
	for round := 0; round < 8; round++ {
		buf := r.buf[:0]
		for i := 0; i < cap(buf); i++ {
			buf = append(buf, int(next()&0xffff))
		}
		sort.Ints(buf)
		r.sink += uint64(buf[len(buf)/2])
	}
}

// scale is what a raw timing of this run is multiplied by; 1 when the
// kernel never ran.
func (r *reference) scale() float64 {
	if r == nil || len(r.us) == 0 {
		return 1
	}
	return usOf(refNominal) / median(r.us)
}
