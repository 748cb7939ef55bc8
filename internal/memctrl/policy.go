package memctrl

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
)

// ShredPolicy selects what physically happens to a page's NVM cells when
// the kernel invalidates it. Silent Shredder's zero-cost policy leaves
// the stale ciphertext in place and relies on the counter encoding to
// make it unreadable; the alternatives physically overwrite the cells so
// that even an attacker who bypasses or rolls back the counters recovers
// nothing. The adversary matrix (internal/adversary) quantifies the
// trade: extra device writes and wear versus attack surface.
type ShredPolicy int

const (
	// PolicyZeroCost is the paper's shredder: no data-block writes at
	// all. The old ciphertext remains in the cells until the frame is
	// naturally rewritten.
	PolicyZeroCost ShredPolicy = iota
	// PolicyDutyToDelete overwrites each invalidated line once with
	// deterministic pseudorandom bytes (Duty to Delete's random
	// overwrite) before the logical shred, removing the remanent
	// ciphertext at the cost of a full page of device writes.
	PolicyDutyToDelete
	// PolicyMultiPass overwrites each invalidated line DefaultScrubPasses
	// times with the classic fixed patterns (the ggg::shred idiom) before
	// the logical shred — the most conservative, most write-expensive
	// policy.
	PolicyMultiPass
)

func (p ShredPolicy) String() string {
	switch p {
	case PolicyDutyToDelete:
		return "duty-to-delete"
	case PolicyMultiPass:
		return "multi-pass"
	default:
		return "zero-cost"
	}
}

// ParseShredPolicy parses a policy name as accepted by the CLI
// -shred-policy / -policy flags.
func ParseShredPolicy(s string) (ShredPolicy, error) {
	switch s {
	case "zero-cost", "":
		return PolicyZeroCost, nil
	case "duty-to-delete":
		return PolicyDutyToDelete, nil
	case "multi-pass":
		return PolicyMultiPass, nil
	}
	return 0, fmt.Errorf("memctrl: unknown shred policy %q (want zero-cost, duty-to-delete or multi-pass)", s)
}

// DefaultScrubPasses is the multi-pass overwrite count.
const DefaultScrubPasses = 4

// multiPassPatterns are the per-pass fill bytes of PolicyMultiPass
// (pass i beyond the table wraps around).
var multiPassPatterns = [...]byte{0x11, 0x22, 0x33, 0x44}

// splitmix64 is the 64-bit finalizer used to derive the duty-to-delete
// overwrite bytes: a pure function of its seed, so scrub contents are
// reproducible for any worker interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ScrubPage physically overwrites page p's data lines on the device
// according to the configured shred policy, returning the number of
// device block writes issued (0 under PolicyZeroCost). The kernel calls
// this from ClearPhysPage before the logical clear, so a crash cut
// anywhere inside the scrub leaves the shred uncommitted — torn scrub
// state is stale garbage, never fresh plaintext. Writes go through the
// retirement remap like any other data write and hit the device write
// hook, so the crash-anywhere scheduler can cut mid-scrub.
func (mc *Controller) ScrubPage(p addr.PageNum) int {
	var passes int
	switch mc.cfg.Policy {
	case PolicyDutyToDelete:
		passes = 1
	case PolicyMultiPass:
		passes = DefaultScrubPasses
	default:
		return 0
	}
	mc.scrubEpoch++
	var buf [addr.BlockSize]byte
	writes := 0
	for pass := 0; pass < passes; pass++ {
		if mc.cfg.Policy == PolicyMultiPass {
			fill := multiPassPatterns[pass%len(multiPassPatterns)]
			for i := range buf {
				buf[i] = fill
			}
		}
		for i := 0; i < addr.BlocksPerPage; i++ {
			a := p.BlockAddr(i)
			if mc.cfg.Policy == PolicyDutyToDelete {
				// Deterministic "random" bytes: seeded by the scrub
				// epoch and block address, so repeated scrubs of the
				// same frame write different garbage.
				x := splitmix64(mc.scrubEpoch<<32 ^ uint64(a))
				for w := 0; w < addr.BlockSize; w += 8 {
					x = splitmix64(x)
					for b := 0; b < 8; b++ {
						buf[w+b] = byte(x >> (8 * b))
					}
				}
			}
			mc.writeData(a, buf[:])
			writes++
		}
	}
	mc.scrubWrites.Add(uint64(writes))
	return writes
}

// ScrubLatency converts a scrub-write count into the core cycles the
// kernel charges for it: like non-temporal zeroing, the core pays
// store-buffer occupancy per line, not device write latency.
func ScrubLatency(writes int, perLine clock.Cycles) clock.Cycles {
	return clock.Cycles(writes) * perLine
}

// ScrubWrites returns device block writes issued by the shred policy's
// physical overwrite passes.
func (mc *Controller) ScrubWrites() uint64 { return mc.scrubWrites.Value() }
