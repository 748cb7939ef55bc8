// Package adversary is the deterministic, seeded attack engine: it
// drives the persistence-based attacker personalities of "Architecting
// NVMM to Guard Against Persistence-based Attacks" against any machine
// personality, and scores what each attacker recovers under each
// physical shred policy (memctrl.ShredPolicy).
//
// Three attackers are modeled:
//
//   - Remanence reader: power the machine off at an arbitrary point
//     (including mid-operation, via the crash-anywhere write scheduler)
//     and read the raw NVM cells — data ciphertext and persisted counter
//     lines alike — in the lab. Scored by scanning every device page for
//     the pre-shred fingerprints of completed shreds
//     (oracle.PersistTracker projection). Encryption defeats this
//     attacker; an unencrypted controller with zero-cost shredding
//     leaks every shredded page's remanent plaintext.
//
//   - Crash-window scavenger: cut execution at write boundaries *inside*
//     shred and re-encryption windows (the §2.3 torn-shred hazard) and
//     attempt recovery-time reads of the torn state through the
//     controller's own reboot path (sim.ReplayToCrash). Crash-safe
//     shredding (write-through counter updates) defeats this attacker at
//     every cut point.
//
//   - Stale-counter replayer: snapshot the counter region, let execution
//     advance past a shred, physically restore the stale snapshot, and
//     reboot. Against zero-cost shredding the remnant ciphertext then
//     decrypts under its original pads — the shredded secret comes back.
//     The Merkle personality detects the rollback with a typed
//     integrity.ReplayError (the root lives in a tamper-proof on-chip
//     register); non-Merkle personalities are scored vulnerable, and
//     only the overwrite policies (duty-to-delete, multi-pass) save
//     them, because the ciphertext the attacker needs is gone.
//
// Every attack is a pure function of (seed, personality, policy): fresh
// machines are built per attempt, scans aggregate order-independent
// counts, and attack events are emitted on the caller's obs bus in
// engine program order — byte-identical results for any parallelism.
package adversary

import (
	"errors"
	"fmt"
	"strings"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/integrity"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
	"silentshredder/internal/oracle"
	"silentshredder/internal/physmem"
	"silentshredder/internal/sim"
)

// Attacker identifies one attacker personality.
type Attacker int

const (
	// AttackRemanence is the powered-off raw-cell reader.
	AttackRemanence Attacker = iota
	// AttackScavenger is the crash-window scavenger.
	AttackScavenger
	// AttackReplay is the stale-counter replayer.
	AttackReplay
	numAttackers
)

func (a Attacker) String() string {
	switch a {
	case AttackRemanence:
		return "remanence"
	case AttackScavenger:
		return "scavenger"
	case AttackReplay:
		return "replay"
	}
	return fmt.Sprintf("attacker(%d)", int(a))
}

// AllAttackers returns the attacker personalities in canonical order.
func AllAttackers() []Attacker {
	return []Attacker{AttackRemanence, AttackScavenger, AttackReplay}
}

// ParseAttackers parses a CLI attacker selection: "all" or a
// comma-separated subset of remanence,scavenger,replay.
func ParseAttackers(s string) ([]Attacker, error) {
	if s == "" || s == "all" {
		return AllAttackers(), nil
	}
	var out []Attacker
	seen := [numAttackers]bool{}
	for _, name := range strings.Split(s, ",") {
		var a Attacker
		switch strings.TrimSpace(name) {
		case "remanence":
			a = AttackRemanence
		case "scavenger":
			a = AttackScavenger
		case "replay":
			a = AttackReplay
		default:
			return nil, fmt.Errorf("adversary: unknown attacker %q (want all or a subset of remanence,scavenger,replay)", name)
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out, nil
}

// Personality is a defender configuration under attack.
type Personality struct {
	Name string
	// DisableEncryption models a plain (insecure) NVM controller — the
	// setting the overwrite policies were designed for.
	DisableEncryption bool
	// Integrity enables the Bonsai Merkle tree over the counter region.
	Integrity bool
}

// Personalities returns the standard defender set, weakest first.
func Personalities() []Personality {
	return []Personality{
		{Name: "plain", DisableEncryption: true},
		{Name: "encrypted"},
		{Name: "merkle", Integrity: true},
	}
}

// ParsePersonality resolves a personality by name.
func ParsePersonality(name string) (Personality, error) {
	for _, p := range Personalities() {
		if p.Name == name {
			return p, nil
		}
	}
	return Personality{}, fmt.Errorf("adversary: unknown personality %q (want plain, encrypted or merkle)", name)
}

// Config parameterizes one engine run.
type Config struct {
	// Seed drives the victim workload (oracle.Generate) and the planted
	// secret's contents.
	Seed int64
	// Scale divides the Table 1 cache capacities (0 = 64, the standard
	// attack-harness scale).
	Scale int
	// Personality is the defender under attack.
	Personality Personality
	// Policy is the physical shred policy the defender runs.
	Policy memctrl.ShredPolicy
	// RemanencePoints is the number of mid-run power-off points (on top
	// of the power-off-at-quiescence read; 0 = 3).
	RemanencePoints int
	// ScavengerMax caps the crash cuts sampled inside shred/re-encrypt
	// windows (0 = 12).
	ScavengerMax int
	// Engine is the dirty-cache capacity of the merkle defender's
	// integrity tree (integrity.Config.DirtyCacheNodes): 0, the
	// default, is the eager tree. A lazy tree must detect every attack
	// the eager one does — the matrix output is the same for any
	// capacity, which cmd/experiments TestGoldens pins.
	Engine int
	// Bus, when non-nil, receives attack_attempt / attack_detected /
	// attack_leak events in engine program order.
	Bus *obs.Bus
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 64
	}
	if c.RemanencePoints <= 0 {
		c.RemanencePoints = 3
	}
	if c.ScavengerMax <= 0 {
		c.ScavengerMax = 12
	}
	return c
}

// machineConfig builds the defender machine: the crash-safe shredding
// configuration (write-through counter cache) with the personality's
// encryption/integrity toggles and the configured shred policy.
func (c Config) machineConfig() sim.Config {
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, c.Scale)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.StoreData = true
	cfg.MemCtrl.CounterCache.WriteThrough = true
	cfg.MemCtrl.DisableEncryption = c.Personality.DisableEncryption
	cfg.MemCtrl.Integrity = c.Personality.Integrity
	cfg.MemCtrl.IntegrityCfg.DirtyCacheNodes = c.Engine
	cfg.MemCtrl.Policy = c.Policy
	return cfg
}

// Outcome scores one attacker's run.
type Outcome struct {
	Attacker string `json:"attacker"`
	// Attempts is the number of independent attack attempts (power-off
	// points, crash cuts, or replays).
	Attempts int `json:"attempts"`
	// LeakedBytes is the total number of forbidden (pre-shred) bytes the
	// attacker recovered across all attempts.
	LeakedBytes int `json:"leaked_bytes"`
	// Detected reports that the integrity layer caught the attack with a
	// typed integrity.ReplayError (Detection holds its message).
	Detected  bool   `json:"detected"`
	Detection string `json:"detection,omitempty"`
	// Vulnerable marks a defender that cannot detect this attack (no
	// integrity tree): the attack proceeds unnoticed whether or not
	// bytes actually leaked.
	Vulnerable bool `json:"vulnerable"`
}

// RunStats summarizes the defender's quiescent (unattacked) run — the
// cost side of the policy trade-off.
type RunStats struct {
	ShredCommands uint64 `json:"shred_commands"`
	// ScrubWrites is the device writes issued by the shred policy's
	// overwrite passes (0 under zero-cost).
	ScrubWrites uint64 `json:"scrub_writes"`
	// ZeroWrites is the device writes spent zeroing pages through the
	// data path (the baseline cost the shredder avoids).
	ZeroWrites   uint64 `json:"zero_writes"`
	DeviceWrites uint64 `json:"device_writes"`
	MaxWear      uint64 `json:"max_wear"`
	// Forbidden is the pre-shred fingerprint count the attackers hunt.
	Forbidden int `json:"forbidden_fingerprints"`
}

// Result is one (personality, policy) cell of the attack matrix.
type Result struct {
	Personality string   `json:"personality"`
	Policy      string   `json:"policy"`
	Seed        int64    `json:"seed"`
	Stats       RunStats `json:"run"`

	Remanence *Outcome `json:"remanence,omitempty"`
	Scavenger *Outcome `json:"scavenger,omitempty"`
	Replay    *Outcome `json:"replay,omitempty"`
}

// TotalLeaked sums leaked bytes across the attacks that ran.
func (r Result) TotalLeaked() int {
	total := 0
	for _, o := range []*Outcome{r.Remanence, r.Scavenger, r.Replay} {
		if o != nil {
			total += o.LeakedBytes
		}
	}
	return total
}

// Run drives the selected attackers against the configured defender.
func Run(cfg Config, attacks []Attacker) (Result, error) {
	cfg = cfg.withDefaults()
	e := &engine{
		cfg:  cfg,
		mcfg: cfg.machineConfig(),
		w:    oracle.Generate(oracle.DefaultGenConfig(cfg.Seed)),
	}
	res := Result{
		Personality: cfg.Personality.Name,
		Policy:      cfg.Policy.String(),
		Seed:        cfg.Seed,
	}

	// Quiescent baseline: the defender's run without interference, for
	// the cost stats and the remanence reader's at-rest scan.
	base, _, tr, _, err := e.replay(noCut, nil)
	if err != nil {
		return res, err
	}
	res.Stats = RunStats{
		ShredCommands: base.MC.ShredCommands(),
		ScrubWrites:   base.MC.ScrubWrites(),
		ZeroWrites:    base.MC.ZeroingWrites(),
		DeviceWrites:  base.Dev.Writes(),
		MaxWear:       base.Dev.MaxWear(),
		Forbidden:     tr.ForbiddenCount(),
	}

	for _, a := range attacks {
		var out Outcome
		switch a {
		case AttackRemanence:
			out, err = e.remanence(base, tr, res.Stats.DeviceWrites)
			res.Remanence = &out
		case AttackScavenger:
			out, err = e.scavenger()
			res.Scavenger = &out
		case AttackReplay:
			out, err = e.replayAttack()
			res.Replay = &out
		default:
			err = fmt.Errorf("adversary: unknown attacker %v", a)
		}
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// engine holds the immutable ingredients every attempt is rebuilt from.
type engine struct {
	cfg  Config
	mcfg sim.Config
	w    oracle.Workload
}

// noCut disables the crash scheduler (no write index is ever reached).
const noCut = ^uint64(0)

// opRecorder observes each completed op with the device-write and
// re-encryption counters sampled before and after it.
type opRecorder func(i int, op apprt.TraceOp, w0, w1, r0, r1 uint64)

// replay builds a fresh defender machine and replays the workload,
// tracking completed shreds exactly like sim.ReplayToCrash. With a cut
// index the run is cut by the crash scheduler (crashed reports whether
// the cut fired); the machine is returned UN-recovered — power is still
// off — so callers choose between raw-cell reads (remanence) and the
// reboot path (Machine.Crash).
func (e *engine) replay(cutAt uint64, rec opRecorder) (m *sim.Machine, rt *apprt.Runtime, tr *oracle.PersistTracker, crashed bool, err error) {
	m, err = sim.New(e.mcfg)
	if err != nil {
		return nil, nil, nil, false, err
	}
	rt = m.Runtime(0)
	tr = oracle.NewPersistTracker()

	var opErr error
	opIdx := 0
	m.ScheduleCrashAtWrite(cutAt)
	crashed = m.RunToCrash(func() {
		for i, op := range e.w.Ops {
			opIdx = i
			w0, r0 := m.Dev.Writes(), m.MC.Reencryptions()
			if op.Kind == apprt.TraceShredRange {
				tok := tr.BeginShred(snapshotShredRange(m, rt, op))
				if opErr = rt.Apply(op); opErr != nil {
					return
				}
				tr.CommitShred(tok)
			} else if opErr = rt.Apply(op); opErr != nil {
				return
			}
			if rec != nil {
				rec(i, op, w0, m.Dev.Writes(), r0, m.MC.Reencryptions())
			}
		}
	})
	if opErr != nil {
		return nil, nil, nil, false, fmt.Errorf("adversary: replay op %d: %w", opIdx, opErr)
	}
	return m, rt, tr, crashed, nil
}

// snapshotShredRange captures the architectural contents of the pages a
// shred-range op is about to clear (mapped writable pages only) —
// purely functional, so the write schedule is unperturbed.
func snapshotShredRange(m *sim.Machine, rt *apprt.Runtime, op apprt.TraceOp) [][]byte {
	proc := rt.Process()
	vpn := op.VA.Page()
	var pages [][]byte
	for i := 0; i < int(op.Arg); i++ {
		pte, ok := proc.AS.Lookup(vpn + addr.VPageNum(i))
		if !ok || !pte.Writable {
			continue
		}
		buf := make([]byte, addr.PageSize)
		m.Img.Read(pte.PPN.Addr(), buf)
		pages = append(pages, buf)
	}
	return pages
}

// leakedBytes counts the forbidden bytes present in data at block
// alignment (order-independent: a total, not positions).
func leakedBytes(tr *oracle.PersistTracker, data []byte) int {
	total := 0
	for off := 0; off+addr.BlockSize <= len(data); off += addr.BlockSize {
		if tr.Leak(data[off:off+addr.BlockSize]) >= 0 {
			total += addr.BlockSize
		}
	}
	return total
}

// scanDevice is the remanence reader's lab bench: every raw cell of the
// powered-off DIMM — in-place data, counter region, spare region — is
// scanned for forbidden fingerprints. No keys, no controller.
func scanDevice(tr *oracle.PersistTracker, dev *nvm.Device) int {
	total := 0
	dev.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		total += leakedBytes(tr, data[:])
	})
	return total
}

// scanImage scans a recovered architectural image for forbidden bytes.
func scanImage(tr *oracle.PersistTracker, img *physmem.Image) int {
	total := 0
	img.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		total += leakedBytes(tr, data[:])
	})
	return total
}

// victimPages is the planted secret's size in pages.
const victimPages = 2

// plantVictim maps a fresh region, fills it with a seed-derived
// high-entropy secret, and flushes the hierarchy so the secret's cells
// (ciphertext, or plaintext on the plain personality) are actually on
// the device — the precondition for any remanence. Returns the region's
// base address.
func (e *engine) plantVictim(m *sim.Machine, rt *apprt.Runtime) addr.Virt {
	va := rt.Malloc(victimPages * addr.PageSize)
	secret := make([]byte, addr.PageSize)
	x := uint64(e.cfg.Seed)*0x9e3779b97f4a7c15 + 1
	for pg := 0; pg < victimPages; pg++ {
		for i := range secret {
			x = x*6364136223846793005 + 1442695040888963407
			secret[i] = byte(x >> 33)
		}
		rt.StoreBytes(va+addr.Virt(pg*addr.PageSize), secret)
	}
	m.Hier.FlushAll()
	m.MC.Flush()
	return va
}

// shredVictim shreds the planted region through the kernel (policy
// scrub + logical shred) and commits its fingerprints to the tracker:
// from here on, no attacker may ever see those bytes again.
func (e *engine) shredVictim(m *sim.Machine, rt *apprt.Runtime, tr *oracle.PersistTracker, va addr.Virt) {
	tok := tr.BeginShred(snapshotShredRange(m, rt, apprt.TraceOp{
		Kind: apprt.TraceShredRange, VA: va, Arg: victimPages,
	}))
	rt.ShredRange(va, victimPages)
	tr.CommitShred(tok)
	m.MC.Flush()
}

// remanence is attacker (1): power off at arbitrary points and scan the
// raw NVM. base/baseTr are the already-run quiescent machine and its
// tracker (the at-rest read); totalWrites bounds the mid-run cut points.
func (e *engine) remanence(base *sim.Machine, baseTr *oracle.PersistTracker, totalWrites uint64) (Outcome, error) {
	out := Outcome{Attacker: AttackRemanence.String(), Vulnerable: true}

	// At-rest read: plant a secret, let the defender flush and shred it,
	// then power off cleanly and read every raw cell in the lab. The
	// secret's pre-shred bytes demonstrably reached the device, so
	// whatever the policy left behind is exactly what leaks.
	rt := base.Runtime(0)
	va := e.plantVictim(base, rt)
	e.shredVictim(base, rt, baseTr, va)
	out.Attempts++
	e.cfg.Bus.Emit(obs.EvAttackAttempt, totalWrites, uint64(AttackRemanence))
	if n := scanDevice(baseTr, base.Dev); n > 0 {
		out.LeakedBytes += n
		e.cfg.Bus.Emit(obs.EvAttackLeak, uint64(AttackRemanence), uint64(n))
	}

	// Power off mid-run, at evenly spaced device-write cuts. Each cut
	// replays a fresh machine; its own tracker scopes the forbidden set
	// to shreds completed before that cut.
	for i := 0; i < e.cfg.RemanencePoints; i++ {
		idx := uint64(i+1) * totalWrites / uint64(e.cfg.RemanencePoints+1)
		out.Attempts++
		e.cfg.Bus.Emit(obs.EvAttackAttempt, idx, uint64(AttackRemanence))
		m, _, tr, _, err := e.replay(idx, nil)
		if err != nil {
			return out, err
		}
		if n := scanDevice(tr, m.Dev); n > 0 {
			out.LeakedBytes += n
			e.cfg.Bus.Emit(obs.EvAttackLeak, uint64(AttackRemanence), uint64(n))
		}
	}
	return out, nil
}

// scavenger is attacker (2): enumerate the device-write windows of every
// shred and re-encryption op, cut execution inside them, and read the
// torn state back through the controller's own recovery path. A cut
// whose recovered image violates the persistent-state projection
// (sim.ReplayToCrash's check) is a leak.
func (e *engine) scavenger() (Outcome, error) {
	out := Outcome{Attacker: AttackScavenger.String(), Vulnerable: true}

	// Pass 1: map the attack surface — [w0, w1) write windows of shred
	// and re-encrypt ops on an undisturbed run.
	type window struct{ w0, w1 uint64 }
	var windows []window
	var total uint64
	_, _, _, _, err := e.replay(noCut, func(i int, op apprt.TraceOp, w0, w1, r0, r1 uint64) {
		if w1 > w0 && (op.Kind == apprt.TraceShredRange || r1 > r0) {
			windows = append(windows, window{w0, w1})
			total += w1 - w0
		}
	})
	if err != nil {
		return out, err
	}
	if total == 0 {
		// No shred ever wrote a cell (write-back counters and no scrub):
		// there is no window to cut. Scored as zero attempts.
		return out, nil
	}

	// Pass 2: sample up to ScavengerMax cuts evenly across the
	// concatenated windows and attack each one.
	cuts := e.cfg.ScavengerMax
	if uint64(cuts) > total {
		cuts = int(total)
	}
	for j := 0; j < cuts; j++ {
		target := uint64(j) * total / uint64(cuts)
		idx := uint64(0)
		for _, win := range windows {
			size := win.w1 - win.w0
			if target < size {
				idx = win.w0 + target
				break
			}
			target -= size
		}
		out.Attempts++
		e.cfg.Bus.Emit(obs.EvAttackAttempt, idx, uint64(AttackScavenger))
		if _, _, err := sim.ReplayToCrash(e.mcfg, e.w, idx); err != nil {
			// Torn state resurfaced pre-shred bytes (or broke the
			// shredded-reads-zero contract) — the scavenger scores.
			out.LeakedBytes += addr.BlockSize
			e.cfg.Bus.Emit(obs.EvAttackLeak, uint64(AttackScavenger), uint64(addr.BlockSize))
		}
	}
	return out, nil
}

// replayAttack is attacker (3): the stale-counter replay. A victim
// secret is planted and flushed to the device, the counter region is
// snapshotted, the victim is shredded (counters advance, and with them
// the Merkle root), the stale snapshot is physically restored, and the
// machine reboots. Detection means the recovery-time counter audit
// returns the typed integrity.ReplayError; otherwise the defender is
// vulnerable and the recovered image is scanned for the secret.
func (e *engine) replayAttack() (Outcome, error) {
	out := Outcome{Attacker: AttackReplay.String()}

	m, rt, tr, _, err := e.replay(noCut, nil)
	if err != nil {
		return out, err
	}

	// Plant the victim secret and flush it to the cells.
	va := e.plantVictim(m, rt)

	// The attacker's snapshot: the persisted counter region as of the
	// flush — the counters the victim's ciphertext was written under.
	stale := m.MC.CounterCache().SnapshotRegion()

	// The defender shreds the victim (policy scrub + logical shred).
	// Write-through counters persist the shred immediately; the Merkle
	// root follows every counter mutation.
	e.shredVictim(m, rt, tr, va)

	// The attack: power off, physically write the stale counter lines
	// back over the counter region, reboot.
	out.Attempts++
	e.cfg.Bus.Emit(obs.EvAttackAttempt, uint64(va), uint64(AttackReplay))
	m.MC.CounterCache().RestoreRegion(stale)
	m.Crash()

	// Reboot-time audit: every persisted counter line must still
	// authenticate against the on-chip Merkle root.
	if err := m.MC.AuthenticatePersistedCounters(); err != nil {
		var re *integrity.ReplayError
		if !errors.As(err, &re) {
			return out, fmt.Errorf("adversary: counter audit returned untyped error %w", err)
		}
		out.Detected = true
		out.Detection = err.Error()
		e.cfg.Bus.Emit(obs.EvAttackDetected, uint64(re.Page.Addr()), uint64(AttackReplay))
		return out, nil
	}

	// No integrity layer: the rollback goes unnoticed. Whatever the
	// recovered image now shows of the shredded secret, the attacker
	// reads at leisure.
	out.Vulnerable = true
	if n := scanImage(tr, m.Img); n > 0 {
		out.LeakedBytes = n
		e.cfg.Bus.Emit(obs.EvAttackLeak, uint64(AttackReplay), uint64(n))
	}
	return out, nil
}
