package main

import (
	"runtime"
	"time"
)

// A shared host's speed drifts: replays ran up to twice as slow for tens of
// seconds at a time on a 2-vCPU Xeon guest, because of the memory system
// other tenants share. Every timed run is therefore paired with a
// calibration, a fixed piece of Go code that no change to the simulator can
// speed up, timed right before the run, and the run's host time is scaled
// by refCalibration over the calibration's time. Growing a map tracked the
// replays' slowdowns best of the kernels tried, since it allocates, hashes
// and touches memory at random as the simulator's tables do. README.md
// gives the measurements.

// calibrationEntries is the size of the map the calibration kernel grows.
const calibrationEntries = 400_000

// refCalibration is the reference time of one calibration: about its
// fastest time on an uncontended 2-vCPU Xeon (Emerald Rapids) guest.
const refCalibration = 40 * time.Millisecond

// calibrationSink keeps the kernel's result live.
var calibrationSink uint64

// calibrate runs the calibration kernel between two forced collections,
// so that neither the previous run's garbage nor the kernel's is collected
// during what is timed next, and returns the factor that scales a host
// time measured right after it to the reference speed, with the kernel's
// time. shrink divides the kernel's size, as it divides the inputs'.
func calibrate(shrink int) (scale float64, took time.Duration) {
	n := uint64(calibrationEntries / shrink)
	runtime.GC()
	start := time.Now()
	m := make(map[uint64]uint64)
	x := uint64(7)
	for i := uint64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // a fixed LCG
		m[x%n] += x
		calibrationSink += m[(x>>7)%n]
	}
	took = time.Since(start)
	runtime.GC()
	return float64(refCalibration) / float64(shrink) / float64(took), took
}
