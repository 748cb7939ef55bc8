//go:build race

package exper

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
