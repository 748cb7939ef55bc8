//go:build !race

package main

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
