package sim_test

// Crash-audit equivalence for the two integrity engines: at every
// sampled cut point of a seeded workload, both engines must recover to
// the SAME Merkle root and both must pass the reboot-time counter audit
// (write-through counters + the ADR-drained dirty-subtree cache leave
// nothing torn). This is the lazy engine's crash-persist-ordering proof:
// deferring root recomputation may never change what a reboot
// authenticates, only when the hash work happened.

import (
	"errors"
	"testing"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
	"silentshredder/internal/integrity"
	"silentshredder/internal/sim"
)

func merkleCrashPersonality(t *testing.T, dirtyCacheNodes int) crashPersonality {
	t.Helper()
	want := "ss-merkle-" + integrity.EngineName(dirtyCacheNodes) + "-wt"
	for _, p := range crashPersonalities() {
		if p.name == want {
			return p
		}
	}
	t.Fatalf("personality %q not in crashPersonalities", want)
	return crashPersonality{}
}

func TestCrashAuditEquivalenceAcrossEngines(t *testing.T) {
	const seed = 7
	w := shortWorkload(seed)
	eagerCfg := crashConfig(merkleCrashPersonality(t, 0))
	cachedCfg := crashConfig(merkleCrashPersonality(t, integrity.DefaultDirtyCacheNodes))

	_, base, err := sim.ReplayToCrash(eagerCfg, w, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if base.Writes == 0 {
		t.Fatal("workload performed no device writes — the sweep is vacuous")
	}
	stride := base.Writes / 31
	if stride == 0 {
		stride = 1
	}
	for idx := uint64(0); idx <= base.Writes; idx += stride {
		me, _, err := sim.ReplayToCrash(eagerCfg, w, idx)
		if err != nil {
			t.Fatalf("eager crash at write %d: %v", idx, err)
		}
		mc, _, err := sim.ReplayToCrash(cachedCfg, w, idx)
		if err != nil {
			t.Fatalf("cached crash at write %d: %v", idx, err)
		}
		rootE := me.MC.IntegrityEngine().Root()
		rootC := mc.MC.IntegrityEngine().Root()
		if rootE != rootC {
			t.Fatalf("crash at write %d: recovered roots diverge", idx)
		}
		// The reboot audit: persisted counters must authenticate against
		// the recovered root for BOTH engines at every cut point.
		if err := me.MC.AuthenticatePersistedCounters(); err != nil {
			t.Fatalf("eager audit after crash at write %d: %v", idx, err)
		}
		if err := mc.MC.AuthenticatePersistedCounters(); err != nil {
			t.Fatalf("cached audit after crash at write %d: %v", idx, err)
		}
	}
}

// A replayed counter region must fail the audit identically under both
// engines: roll one persisted counter block back post-crash and require
// the same typed ReplayError, naming the same page, from each.
func TestCrashAuditTamperDetectionAcrossEngines(t *testing.T) {
	const seed = 7
	w := shortWorkload(seed)
	var failedPage [2]uint64
	for i, capacity := range []int{0, integrity.DefaultDirtyCacheNodes} {
		kind := integrity.EngineName(capacity)
		cfg := crashConfig(merkleCrashPersonality(t, capacity))
		m, _, err := sim.ReplayToCrash(cfg, w, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		cc := m.MC.CounterCache()
		// Roll the lowest-numbered persisted counter block back (the
		// stale-counter replay, in miniature).
		var victim addr.PageNum
		found := false
		cc.ForEachPersisted(func(p addr.PageNum, cb ctr.CounterBlock) {
			if !found || p < victim {
				victim, found = p, true
			}
		})
		if !found {
			t.Fatal("no persisted counter blocks to tamper with")
		}
		stale := cc.PersistedValue(victim)
		stale.Major += 100
		cc.TamperPersisted(victim, stale)
		err = m.MC.AuthenticatePersistedCounters()
		var re *integrity.ReplayError
		if !errors.As(err, &re) {
			t.Fatalf("%s: audit returned %v, want *integrity.ReplayError", kind, err)
		}
		if re.Page != victim {
			t.Fatalf("%s: ReplayError page = %v, want %v", kind, re.Page, victim)
		}
		failedPage[i] = uint64(victim)
	}
	if failedPage[0] != failedPage[1] {
		t.Fatalf("engines detected replay at different pages: %d vs %d", failedPage[0], failedPage[1])
	}
}
