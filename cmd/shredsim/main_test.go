package main

import "testing"

func TestCheckMachine(t *testing.T) {
	for _, tc := range []struct {
		cores, scale, counterCache int
		ok                         bool
	}{
		{8, 8, 0, true},
		{1, 1, 0, true},
		{2, 2, 0, true},
		{2, 64, 0, true},
		{2, 64, 4096, true},
		{0, 8, 0, false},
		{-1, 8, 0, false},
		{8, 0, 0, false},
		{8, -4, 0, false},
		{0, 0, 0, false},
		// The directory tracks at most 8 cores.
		{9, 8, 0, false},
		{65, 64, 0, false},
		// Scales that are not powers of two leave caches with
		// fractional or non-power-of-two set counts.
		{2, 3, 0, false},
		{2, 6, 0, false},
		{2, 100, 0, false},
		// Counter-cache sizes that are not whole sets (5000 bytes) or
		// whose set count is not a power of two (24 sets).
		{2, 64, 5000, false},
		{2, 64, 12288, false},
	} {
		if err := checkMachine(tc.cores, tc.scale, tc.counterCache); (err == nil) != tc.ok {
			t.Errorf("checkMachine(%d, %d, %d) = %v, want ok=%v", tc.cores, tc.scale, tc.counterCache, err, tc.ok)
		}
	}
}
