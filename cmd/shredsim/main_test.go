package main

import "testing"

func TestCheckMachine(t *testing.T) {
	for _, tc := range []struct {
		cores, scale int
		ok           bool
	}{
		{8, 8, true},
		{1, 1, true},
		{2, 64, true},
		{0, 8, false},
		{-1, 8, false},
		{8, 0, false},
		{8, -4, false},
		{0, 0, false},
	} {
		if err := checkMachine(tc.cores, tc.scale); (err == nil) != tc.ok {
			t.Errorf("checkMachine(%d, %d) = %v, want ok=%v", tc.cores, tc.scale, err, tc.ok)
		}
	}
}
