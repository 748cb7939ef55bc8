// The `experiments merkle` sweep: per-level Merkle traffic of the two
// integrity engines over one write-heavy checked workload.
//
// Both engines replay the SAME seeded oracle workload on the same
// machine geometry, with the oracle and the machine-wide invariant
// sweeps attached (so every run re-proves both engines against the
// architectural contract while being measured). The sweep reports the
// hash-unit traffic per tree level — reconstructed from the obs bus's
// merkle_update / merkle_verify / merkle_flush events — which is the
// figure form of the lazy engine's claim: eager updates pay for every
// level on every counter write, while the cached engine pays one leaf
// hash per write and amortizes the upper levels across coalesced
// persist-barrier batches. Both rows must end on the same root: the
// deferred updates change when work happens, never what is
// authenticated.
package exper

import (
	"encoding/hex"
	"fmt"

	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/oracle"
	"silentshredder/internal/sim"
	"silentshredder/internal/stats"
)

// merkleDepth/merkleCached size the swept tree: 2^16 pages covered, top
// 8 levels on chip, so a non-short-circuited verification walks 9
// levels. Small enough to render per level, deep enough that eager
// updates (17 hashes each) visibly dwarf coalesced ones.
const (
	merkleDepth  = 16
	merkleCached = 8
)

// MerkleRow is one engine's measurements over the shared workload.
type MerkleRow struct {
	Engine     string
	Updates    uint64 // counter-block mutations absorbed by the engine
	Verifies   uint64 // counter fetches authenticated
	VerifyHits uint64 // verifies satisfied by the dirty-subtree cache
	HashOps    uint64 // total hash-unit operations
	FlushOps   uint64 // hash ops spent in coalesced propagation batches
	Root       string // leading 8 bytes of the final root (hex)
	// PerLevel is the hash-unit traffic per tree level, 0 (leaves) up to
	// merkleDepth (root).
	PerLevel []uint64
}

// merkleWorkload builds the shared write-heavy op stream. Memsets and
// shreds hit every block of a page, so counter blocks absorb long
// same-leaf update runs — the coalescing case — while the deliberately
// small counter cache (merkleRun) keeps fetch-verification traffic live.
func merkleWorkload(o Options, seed int64) oracle.Workload {
	ops := 2400
	if o.Quick {
		ops = 600
	}
	return oracle.Generate(oracle.GenConfig{
		Seed:          seed,
		Ops:           ops,
		MaxAllocPages: 4,
		MaxLivePages:  96,
	})
}

// merkleRingMin is the smallest per-run event ring the sweep will use:
// big enough for the default workload with headroom. -obs-ring can only
// grow it (shrinking would guarantee the wrap error below).
const merkleRingMin = 1 << 21

// merkleRun replays the workload with the given engine and reconstructs
// the per-level traffic from the machine's event bus. A wrapped ring is
// an error, not a truncated figure.
func merkleRun(o Options, w oracle.Workload, engine integrity.EngineKind, ringCap int) (MerkleRow, error) {
	// A private bus per run: the per-level figure is rebuilt from the
	// event stream, so it must never wrap. The capacity is checked
	// after the run rather than trusted.
	bus := obs.NewBus(obs.Config{RingCap: ringCap})
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, o.Scale)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.StoreData = true
	cfg.CheckOracle = true
	cfg.Bus = bus
	o.applyMachine(&cfg)
	cfg.MemCtrl.Integrity = true
	cfg.MemCtrl.IntegrityCfg = integrity.Config{
		Depth:        merkleDepth,
		CachedLevels: merkleCached,
		HashLatency:  40,
		Engine:       engine,
	}
	// Undersize the counter cache so the workload's footprint forces
	// evictions (per-page persist propagation) and miss-path
	// verifications; a footprint-sized cache would absorb everything and
	// measure only the update path.
	cfg.MemCtrl.CounterCache.Size = 4 << 10
	m := sim.MustNew(cfg)
	rt := m.Runtime(0)
	for i, op := range w.Ops {
		if err := rt.Apply(op); err != nil {
			panic(fmt.Sprintf("exper: merkle sweep op %d: %v", i, err))
		}
	}
	// Final persist barrier: the cached engine propagates its last
	// coalesced batch here, after which both engines' roots must match.
	m.Hier.FlushAll()
	m.MC.Flush()

	if n := bus.Dropped(); n > 0 {
		return MerkleRow{}, fmt.Errorf(
			"exper: merkle sweep (%s) event ring wrapped: %d of the events the per-level figure is built from were dropped; re-run with -obs-ring %d (or larger)",
			engine, n, 2*ringCap)
	}
	row := MerkleRow{
		Engine:   engine.String(),
		PerLevel: make([]uint64, merkleDepth+1),
	}
	for _, ev := range bus.Events() {
		switch ev.Kind {
		case obs.EvMerkleUpdate:
			row.Updates++
			for l := uint64(0); l < ev.Arg && l < uint64(len(row.PerLevel)); l++ {
				row.PerLevel[l]++
			}
		case obs.EvMerkleVerify:
			row.Verifies++
			if ev.Arg == 1 {
				row.VerifyHits++
			}
			for l := uint64(0); l < ev.Arg && l < uint64(len(row.PerLevel)); l++ {
				row.PerLevel[l]++
			}
		case obs.EvMerkleFlush:
			if ev.Addr < uint64(len(row.PerLevel)) {
				row.PerLevel[ev.Addr] += ev.Arg
				row.FlushOps += ev.Arg
			}
		}
	}
	// No adversary touches this run, so every counter fetch is authentic:
	// a failed verification is an engine bug, not a figure.
	if n := m.MC.IntegrityFailures(); n > 0 {
		return MerkleRow{}, fmt.Errorf("exper: merkle sweep (%s): %d authentic counter fetches failed verification", engine, n)
	}
	eng := m.MC.IntegrityEngine()
	row.HashOps = eng.HashOps()
	root := eng.Root()
	row.Root = hex.EncodeToString(root[:8])
	return row, nil
}

// MerkleEngines is the sweep's engine axis, eager first.
var MerkleEngines = []integrity.EngineKind{integrity.EngineEager, integrity.EngineCached}

// MerkleSweep runs the shared workload under each engine. The two runs
// are independent machines and fan out across the sweep worker pool.
// ringCap sizes each run's private event ring (≤ 0 keeps the default);
// a run whose ring wrapped is reported as an error rather than a
// silently truncated figure.
func MerkleSweep(o Options, seed int64, ringCap int) ([]MerkleRow, error) {
	o = o.normalized()
	if ringCap < merkleRingMin {
		ringCap = merkleRingMin
	}
	w := merkleWorkload(o, seed)
	type out struct {
		row MerkleRow
		err error
	}
	outs := runSweep(o, len(MerkleEngines), func(i int) out {
		row, err := merkleRun(o, w, MerkleEngines[i], ringCap)
		return out{row, err}
	})
	rows := make([]MerkleRow, len(outs))
	for i, r := range outs {
		if r.err != nil {
			return nil, r.err
		}
		rows[i] = r.row
	}
	return rows, nil
}

// MerkleTable renders the engine summary.
func MerkleTable(rows []MerkleRow) *stats.Table {
	t := stats.NewTable(
		"Integrity engines: hash traffic over one write-heavy checked workload (shared seed, final roots must match)",
		"engine", "updates", "verifies", "verify_hits", "hash_ops", "flush_ops", "root8")
	for _, r := range rows {
		t.AddRow(r.Engine, r.Updates, r.Verifies, r.VerifyHits, r.HashOps, r.FlushOps, r.Root)
	}
	return t
}

// MerkleLevelTable renders the per-level traffic figure: one row per
// tree level, one column per engine.
func MerkleLevelTable(rows []MerkleRow) *stats.Table {
	cols := []string{"level"}
	for _, r := range rows {
		cols = append(cols, r.Engine+"_hashes")
	}
	t := stats.NewTable(
		"Per-level Merkle traffic: hash ops by tree level (0 = leaves)", cols...)
	for l := 0; l <= merkleDepth; l++ {
		vals := make([]any, 0, len(rows)+1)
		vals = append(vals, l)
		for _, r := range rows {
			vals = append(vals, r.PerLevel[l])
		}
		t.AddRow(vals...)
	}
	return t
}
