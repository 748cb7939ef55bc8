package integrity

import (
	"fmt"

	"silentshredder/internal/addr"
)

// ReplayError reports that a counter block failed authentication against
// the Merkle root: the persisted counters are not the ones the root
// covers. Since the root lives in a tamper-proof on-chip register and
// survives power loss, the only way to reach this state is physical
// tampering with the counter region — in particular a stale-counter
// replay, where an attacker restores a pre-shred counter snapshot to
// decrypt remnant ciphertext. Controllers must refuse to come online.
type ReplayError struct {
	// Page is the first page (in ascending page order) whose counter
	// block fails authentication.
	Page addr.PageNum
	// Major is the replayed counter block's major counter, as found in
	// the counter region.
	Major uint64
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("integrity: counter block of %v (major=%d) fails authentication against the Merkle root: stale or forged counters replayed", e.Page, e.Major)
}
