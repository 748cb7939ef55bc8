package clock

import "testing"

// At the Table 1 clock of 2GHz a nanosecond is two cycles: the 75ns NVM
// read costs 150 cycles and the 150ns write 300.
func TestConversions(t *testing.T) {
	if got := FromNs(75); got != 150 {
		t.Errorf("FromNs(75) = %d, want 150", got)
	}
	if got := FromNs(150.2); got != 300 {
		t.Errorf("FromNs(150.2) = %d, want 300 (rounded)", got)
	}
	if got := Cycles(300).Ns(); got != 150 {
		t.Errorf("Cycles(300).Ns() = %v, want 150", got)
	}
	if got := Cycles(FrequencyHz).Seconds(); got != 1 {
		t.Errorf("one second of cycles = %v s", got)
	}
}
