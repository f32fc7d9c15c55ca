package main

import (
	"sort"
	"syscall"
	"time"
)

// How fast the host runs the simulator changes over minutes: when other
// guests load the same physical cores, every measuring process slows
// down, by up to 70% in the worst period observed. CPU time does not
// leave that out, because it is not steal. A measuring process therefore
// also times a fixed calibration kernel, clearing a buffer larger than the
// caches, every calInterval between cells, and its CPU times are scaled
// by calNominal over the kernel's median time in that process. A cleared
// buffer tracked the simulator's slow periods more closely than a
// pointer chase or an arithmetic loop, and memory clearing is much of
// what the simulator itself does when it builds a node. The kernel runs
// no code of the simulator, so a change to the simulator moves the scaled
// times as much as the raw ones.
const (
	calBytes    = 8 << 20
	calRounds   = 4
	calInterval = 200 * time.Millisecond
	// calNominal is the kernel's CPU time on a calm host, the speed that
	// scaled times are given at.
	calNominal = 2500 * time.Microsecond
)

type calibrator struct {
	buf     []byte
	last    time.Time
	samples []time.Duration
	spent   time.Duration // CPU time of every sample, left out of passes
}

// newCalibrator maps the buffer and runs the kernel once untimed, so that
// the buffer is resident before the first sample. The buffer lies outside
// the Go heap, so it does not change when the simulator's GC cycles run;
// it adds exactly calBytes to the process's resident set.
func newCalibrator() (*calibrator, error) {
	buf, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{buf: buf}
	c.run()
	c.samples, c.spent = nil, 0
	return c, nil
}

func (c *calibrator) run() {
	t0 := cpuTime()
	for i := 0; i < calRounds; i++ {
		clear(c.buf)
		c.buf[i] = 1
	}
	d := cpuTime() - t0
	c.samples = append(c.samples, d)
	c.spent += d
	c.last = time.Now()
}

// maybe runs the kernel when calInterval has passed since it last ran.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calInterval {
		c.run()
	}
}

// calScale is the factor that turns CPU time measured alongside the
// given kernel samples into CPU time at nominal host speed.
func calScale(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + mid) / 2
	}
	return float64(calNominal) / float64(mid)
}
