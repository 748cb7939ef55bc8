package integrity

import (
	"fmt"

	"silentshredder/internal/addr"
	"silentshredder/internal/clock"
	"silentshredder/internal/ctr"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// EngineKind selects an integrity-engine implementation.
type EngineKind int

const (
	// EngineEager is the classic Bonsai tree: every counter update is
	// charged a synchronous full leaf-to-root rehash (Tree).
	EngineEager EngineKind = iota
	// EngineCached coalesces updates in an on-chip dirty-subtree cache
	// and batch-propagates them at persist barriers (CachedTree).
	EngineCached
)

// String returns the kind's stable CLI spelling.
func (k EngineKind) String() string {
	switch k {
	case EngineEager:
		return "eager"
	case EngineCached:
		return "cached"
	}
	return fmt.Sprintf("enginekind(%d)", int(k))
}

// ParseEngineKind parses a CLI spelling produced by EngineKind.String.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "eager":
		return EngineEager, nil
	case "cached":
		return EngineCached, nil
	}
	return 0, fmt.Errorf("integrity: unknown engine %q (want eager or cached)", s)
}

// Engine is a pluggable integrity engine protecting the counter region.
// The controller drives it through four paths:
//
//   - Update on every counter-block mutation (the hot write path). The
//     eager engine charges its full-path rehash here but runs it on the
//     host only at the next Root, Verify, ConsistentWith, Authenticate
//     or PersistBarrier, where it changes no statistic and no event;
//   - Verify on counter-cache misses (the hot read path);
//   - Persisted/PersistBarrier for crash-persist ordering: Persisted
//     fires when one page's counters reach the persistence domain (a
//     counter-cache writeback) and PersistBarrier at whole-machine
//     persist points (mc.Flush, crash cuts). After either, the root
//     register covers every counter block persisted so far;
//   - ConsistentWith/Authenticate for statistics-neutral audits — the
//     -check invariant sweep and the reboot-time replay audit.
type Engine interface {
	// SetBus attaches the observability event bus (nil disables).
	SetBus(b *obs.Bus)
	// Root returns the current root register value.
	Root() Hash
	// Update absorbs a changed counter block for page p, returning the
	// modeled latency charged to the write.
	Update(p addr.PageNum, block [ctr.CounterBlockSize]byte) clock.Cycles
	// Verify checks block against the engine's authenticated state,
	// returning whether it verifies and the modeled latency.
	Verify(p addr.PageNum, block [ctr.CounterBlockSize]byte) (bool, clock.Cycles)
	// ConsistentWith reports whether block is covered, pending or
	// persisted, without touching statistics or modeling latency.
	ConsistentWith(p addr.PageNum, block [ctr.CounterBlockSize]byte) bool
	// Authenticate is ConsistentWith with a typed *ReplayError on
	// mismatch, for the reboot-time counter audit.
	Authenticate(p addr.PageNum, block [ctr.CounterBlockSize]byte) error
	// Persisted notes that page p's counter block reached the
	// persistence domain; any pending update for it must now be
	// reflected in the root register.
	Persisted(p addr.PageNum)
	// PersistBarrier makes the root register cover every pending update
	// (machine-wide persist points and crash cuts).
	PersistBarrier()
	// VerifyCost returns the modeled latency of one verification.
	VerifyCost() clock.Cycles
	// HashOps returns the number of hash-unit operations performed.
	HashOps() uint64
	// ResetStats clears the engine's statistics.
	ResetStats()
	// StatsSet exposes the engine's statistics as the "merkle" set.
	StatsSet() *stats.Set
}

// New builds the engine selected by cfg.Engine.
func New(cfg Config) Engine {
	switch cfg.Engine {
	case EngineCached:
		return NewCachedTree(cfg)
	default:
		return NewTree(cfg)
	}
}

// Both engines must satisfy the interface.
var (
	_ Engine = (*Tree)(nil)
	_ Engine = (*CachedTree)(nil)
)
