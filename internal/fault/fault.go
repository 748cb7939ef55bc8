// Package fault is the deterministic, seeded fault-injection engine for
// the NVM device model.
//
// Silent Shredder's value proposition rests on NVM endurance, yet a
// perfect device never exercises the controller's error paths. This
// package produces the three physical failure modes that matter for a
// PCM-class main memory (§2.1), all reproducible from a single seed:
//
//   - wear-driven stuck-at cells: a write may permanently stick one cell
//     at its current value, with probability scaling with the block's
//     accumulated wear (worn cells fail first);
//   - transient read bit-flips: resistance drift / sensing noise flips a
//     delivered bit without corrupting the stored value;
//   - dropped and torn writes: a write either fails to program entirely
//     (leaving the old, self-consistent codeword — invisible to ECC) or
//     commits only a prefix, leaving data and ECC inconsistent.
//
// The injector implements nvm.Injector and is attached with
// (*nvm.Device).SetInjector. Every decision is a pure function of
// (seed, block address, per-injector event counter), so a run with a
// fixed seed is byte-identical across repetitions regardless of host —
// the same determinism contract the sweep engine enforces elsewhere.
//
// The corruption model is split across the stack the way real hardware
// splits it: the device stores the true codeword (what the controller
// wrote, modulo torn/dropped commits); the injector corrupts the copy
// *delivered* on each read and reports how many delivered bits differ
// from the stored codeword. The ECC layer in memctrl turns that syndrome
// into a correction (re-reading the stored value) or a typed
// uncorrectable error.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"silentshredder/internal/addr"
	"silentshredder/internal/nvm"
	"silentshredder/internal/obs"
	"silentshredder/internal/stats"
)

// Config holds the fault rates and the seed they replay from.
//
// All rates are per-event probabilities in [0,1]: StuckPerWrite is drawn
// once per device write (then scaled by wear), ReadFlip once per device
// read, DropWrite/TornWrite once per device write. A zero-valued Config
// disables injection entirely (the device behaves exactly as before this
// package existed).
type Config struct {
	Seed int64

	// StuckPerWrite is the base probability that a write permanently
	// sticks one cell of the block. The effective probability is
	// StuckPerWrite * min(1, wear/Endurance) when Endurance > 0, so
	// fresh blocks almost never stick and worn blocks approach the base
	// rate — the wear-out curve §2.1 describes.
	StuckPerWrite float64
	// ReadFlip is the probability a read delivers one transiently
	// flipped bit (the stored value is unaffected).
	ReadFlip float64
	// DropWrite is the probability a write silently fails to program
	// anything, leaving the previous (self-consistent) contents.
	DropWrite float64
	// TornWrite is the probability a write commits only a prefix,
	// leaving the block an inconsistent mix of old and new data that
	// ECC flags as uncorrectable.
	TornWrite float64

	// Endurance scales stuck-at probability with wear; 0 means
	// wear-independent (the base rate applies from the first write).
	Endurance uint64
}

// Enabled reports whether any fault mechanism is active.
func (c Config) Enabled() bool {
	return c.StuckPerWrite > 0 || c.ReadFlip > 0 || c.DropWrite > 0 || c.TornWrite > 0
}

// String renders the config in the same spec syntax Parse accepts.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	parts := []string{}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("stuck", c.StuckPerWrite)
	add("flip", c.ReadFlip)
	add("drop", c.DropWrite)
	add("torn", c.TornWrite)
	if c.Endurance > 0 {
		parts = append(parts, fmt.Sprintf("endur=%d", c.Endurance))
	}
	return fmt.Sprintf("%d:%s", c.Seed, strings.Join(parts, ","))
}

// Parse decodes the CLI fault spec "seed:rate,rate,...", e.g.
//
//	-faults=42:stuck=1e-3,flip=1e-6,drop=1e-4,torn=1e-5,endur=1000
//
// Known rate keys: stuck, flip, drop, torn (floats in [0,1]) and endur
// (integer wear scale). An empty spec or "off" returns a disabled Config.
func Parse(spec string) (Config, error) {
	var c Config
	if spec == "" || spec == "off" {
		return c, nil
	}
	colon := strings.IndexByte(spec, ':')
	if colon < 0 {
		return c, fmt.Errorf("fault: spec %q: want seed:rate=value,... (e.g. 42:stuck=1e-3,flip=1e-6)", spec)
	}
	seed, err := strconv.ParseInt(spec[:colon], 10, 64)
	if err != nil {
		return c, fmt.Errorf("fault: bad seed %q: %v", spec[:colon], err)
	}
	c.Seed = seed
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec[colon+1:], ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return Config{}, fmt.Errorf("fault: bad rate %q: want key=value", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		if seen[key] {
			// A duplicate is almost always a typo'd sweep script; silently
			// letting the last one win would misreport the injected rates.
			return Config{}, fmt.Errorf("fault: rate key %q given twice", key)
		}
		seen[key] = true
		if key == "endur" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad endur %q: %v", val, err)
			}
			c.Endurance = n
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		// NaN fails both ordered comparisons, so reject it explicitly.
		if err != nil || math.IsNaN(f) || f < 0 || f > 1 {
			return Config{}, fmt.Errorf("fault: rate %s=%q: want a probability in [0,1]", key, val)
		}
		switch key {
		case "stuck":
			c.StuckPerWrite = f
		case "flip":
			c.ReadFlip = f
		case "drop":
			c.DropWrite = f
		case "torn":
			c.TornWrite = f
		default:
			return Config{}, fmt.Errorf("fault: unknown rate key %q (want stuck, flip, drop, torn or endur)", key)
		}
	}
	if len(seen) == 0 {
		// "42:" would otherwise parse as a fully disabled injector — a
		// sweep that thinks it is injecting faults but isn't.
		return Config{}, fmt.Errorf("fault: spec %q names no rates: want seed:rate=value,... or \"off\"", spec)
	}
	return c, nil
}

// stuckBit is one permanently failed cell: bit index within the 512-bit
// block, stuck at val.
type stuckBit struct {
	bit uint16
	val bool
}

// Injector implements nvm.Injector: deterministic fault generation on the
// device's read and write paths.
type Injector struct {
	cfg    Config
	events uint64 // per-decision counter; part of every hash input

	stuck map[addr.Phys][]stuckBit
	torn  map[addr.Phys]bool

	// protect: addresses >= protect are write-verified by the controller
	// (counter and spare regions), so dropped/torn writes are caught and
	// retried immediately — modeled by simply not injecting them there.
	// Stuck-cell development still applies: the medium wears the same.
	protect addr.Phys

	stuckCells    stats.Counter
	readFlips     stats.Counter
	droppedWrites stats.Counter
	tornWrites    stats.Counter

	bus *obs.Bus // nil unless observability is enabled
}

// SetBus attaches the observability event bus (nil disables).
func (in *Injector) SetBus(b *obs.Bus) { in.bus = b }

// New creates an injector for the given fault configuration.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:   cfg,
		stuck: make(map[addr.Phys][]stuckBit),
		torn:  make(map[addr.Phys]bool),
	}
}

// SetWriteProtect marks every address at or above base as write-verified:
// the controller reads such lines back after writing (counter and spare
// regions hold metadata it cannot afford to lose silently), so dropped and
// torn writes are repaired on the spot and never observed. Stuck-cell
// development and read flips still apply there — those are what the
// counter-line ECC path exists to handle.
func (in *Injector) SetWriteProtect(base addr.Phys) { in.protect = base }

// splitmix64 is the finalizer of the splitmix64 generator — a full-avalanche
// 64-bit mix, so consecutive event counters produce uncorrelated draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rnd returns the next deterministic 64-bit draw for an event at block a.
// The per-injector event counter makes every draw distinct; the salt
// separates decision kinds so e.g. "drop?" and "where to tear?" never
// reuse a value.
func (in *Injector) rnd(salt uint64, a addr.Phys) uint64 {
	in.events++
	return splitmix64(uint64(in.cfg.Seed) ^ salt*0x9e3779b97f4a7c15 ^ uint64(a)<<1 ^ in.events*0xff51afd7ed558ccd)
}

// hit draws a Bernoulli(p) decision using 53 uniform bits.
func (in *Injector) hit(p float64, salt uint64, a addr.Phys) bool {
	if p <= 0 {
		return false
	}
	return float64(in.rnd(salt, a)>>11)/(1<<53) < p
}

const (
	saltDrop = 1 + iota
	saltTorn
	saltTearAt
	saltStuck
	saltStuckBit
	saltFlip
	saltFlipBit
)

// FilterWrite implements nvm.Injector. It is called with the block's
// current stored contents (old) and the bytes about to be written (src, a
// scratch copy the injector may mutate). Returning false drops the write
// entirely; returning true commits src (possibly mutated into a torn
// mix). wear is the block's pre-write wear count, driving stuck-cell
// development.
func (in *Injector) FilterWrite(a addr.Phys, wear uint64, old, src []byte) bool {
	// Stuck-cell development: worn cells fail first.
	p := in.cfg.StuckPerWrite
	if p > 0 && in.cfg.Endurance > 0 {
		f := float64(wear) / float64(in.cfg.Endurance)
		if f > 1 {
			f = 1
		}
		p *= f
	}
	if in.hit(p, saltStuck, a) {
		r := in.rnd(saltStuckBit, a)
		bit := uint16(r % (addr.BlockSize * 8))
		val := r&(1<<63) != 0
		in.addStuck(a, bit, val)
	}

	if in.protect > 0 && a >= in.protect {
		// Write-verified region: drop/torn cannot survive, and a clean
		// write clears any stale torn marking.
		delete(in.torn, a)
		return true
	}
	if in.hit(in.cfg.DropWrite, saltDrop, a) {
		in.droppedWrites.Inc()
		in.bus.Emit(obs.EvFaultDrop, uint64(a), 0)
		return false // stored contents stay the old, self-consistent codeword
	}
	if in.hit(in.cfg.TornWrite, saltTorn, a) {
		// Commit only a prefix: a cut at an 8-byte boundary strictly
		// inside the block, old bytes beyond it. Data and ECC are now
		// inconsistent — the read path flags it.
		cut := 8 * (1 + int(in.rnd(saltTearAt, a)%uint64(addr.BlockSize/8-1)))
		copy(src[cut:addr.BlockSize], old[cut:addr.BlockSize])
		in.torn[a] = true
		in.tornWrites.Inc()
		in.bus.Emit(obs.EvFaultTorn, uint64(a), uint64(cut))
		return true
	}
	// A clean, complete write re-establishes a consistent codeword.
	delete(in.torn, a)
	return true
}

// addStuck registers a stuck cell if that bit isn't already stuck.
func (in *Injector) addStuck(a addr.Phys, bit uint16, val bool) {
	for _, s := range in.stuck[a] {
		if s.bit == bit {
			return
		}
	}
	in.stuck[a] = append(in.stuck[a], stuckBit{bit: bit, val: val})
	in.stuckCells.Inc()
	in.bus.Emit(obs.EvFaultStuck, uint64(a), uint64(bit))
}

// CorruptRead implements nvm.Injector. dst holds the true stored codeword
// just delivered by the device; the injector overlays permanent stuck
// cells and transient flips, returning how many delivered bits now differ
// from the stored value and whether the stored codeword itself is torn.
func (in *Injector) CorruptRead(a addr.Phys, dst []byte) nvm.ReadOutcome {
	var oc nvm.ReadOutcome
	for _, s := range in.stuck[a] {
		byteIdx, mask := int(s.bit>>3), byte(1)<<(s.bit&7)
		cur := dst[byteIdx]&mask != 0
		if cur != s.val {
			dst[byteIdx] ^= mask
			oc.BitErrors++
		}
	}
	if in.hit(in.cfg.ReadFlip, saltFlip, a) {
		bit := uint16(in.rnd(saltFlipBit, a) % (addr.BlockSize * 8))
		dst[bit>>3] ^= byte(1) << (bit & 7)
		in.readFlips.Inc()
		in.bus.Emit(obs.EvFaultFlip, uint64(a), uint64(bit))
		oc.BitErrors++
	}
	oc.Torn = in.torn[a]
	return oc
}

// StuckCells returns the total permanently stuck cells developed so far.
func (in *Injector) StuckCells() uint64 { return in.stuckCells.Value() }

// ReadFlips returns the transient read bit-flips injected so far.
func (in *Injector) ReadFlips() uint64 { return in.readFlips.Value() }

// DroppedWrites returns the writes silently dropped so far.
func (in *Injector) DroppedWrites() uint64 { return in.droppedWrites.Value() }

// TornWrites returns the writes torn so far.
func (in *Injector) TornWrites() uint64 { return in.tornWrites.Value() }

// StatsSet exposes the injector's statistics under the given component
// name.
func (in *Injector) StatsSet(name string) *stats.Set {
	s := stats.NewSet(name)
	s.RegisterCounter("stuck_cells", &in.stuckCells)
	s.RegisterCounter("read_flips", &in.readFlips)
	s.RegisterCounter("dropped_writes", &in.droppedWrites)
	s.RegisterCounter("torn_writes", &in.tornWrites)
	return s
}
