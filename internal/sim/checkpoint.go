package sim

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
)

// Memory-state checkpointing, in the spirit of the paper's gem5
// methodology ("we checkpoint the PowerGraph benchmarks at the beginning
// of the graph construction phase", §5): a machine's persistent memory
// state — NVM cell contents and wear, the counter region, and the
// functional image — can be serialized after a warmup phase and restored
// into fresh machines, so measurement runs skip the warmup.
//
// A checkpoint is also exactly a *DIMM image*: what an adversary with
// physical access walks away with. The attack-model tests analyze dumps
// through this same format.
//
// Caches are not part of the checkpoint; SaveMemoryState drains them
// first (write backs included), so a restored machine boots "cold but
// consistent" — the state a real NVDIMM holds after a clean shutdown.

// checkpointMagic identifies checkpoint streams. Version 2 stores maps
// as key-sorted slices; a version 1 stream, which stored them as maps,
// fails to decode.
const checkpointMagic = "SSCHKPT2"

// checkpoint is the serialized form. gob writes a map in Go's random
// iteration order, so every map travels as a slice sorted by key and two
// saves of one state are identical byte for byte.
type checkpoint struct {
	Magic  string
	Pages  []entry[addr.PageNum, []byte] // device cells (nvm.State.Pages)
	Wear   []entry[addr.Phys, uint64]
	Flip   []entry[addr.Phys, uint8]
	Region []entry[addr.PageNum, ctr.CounterBlock]
	Image  []entry[addr.PageNum, []byte]
	// HasImage is whether the saving machine kept a functional image:
	// a timing-only machine saves none, which a functional machine
	// restoring the checkpoint rebuilds from the ciphertext.
	HasImage bool
	Journal  []string // names of persistent regions (informational)
}

// entry is one key/value pair of a checkpointed map.
type entry[K cmp.Ordered, V any] struct {
	K K
	V V
}

// sortedEntries lists m's pairs in ascending key order.
func sortedEntries[K cmp.Ordered, V any](m map[K]V) []entry[K, V] {
	out := make([]entry[K, V], 0, len(m))
	for k, v := range m {
		out = append(out, entry[K, V]{k, v})
	}
	slices.SortFunc(out, func(a, b entry[K, V]) int { return cmp.Compare(a.K, b.K) })
	return out
}

// entryMap rebuilds the map sortedEntries listed.
func entryMap[K cmp.Ordered, V any](es []entry[K, V]) map[K]V {
	m := make(map[K]V, len(es))
	for _, e := range es {
		m[e.K] = e.V
	}
	return m
}

// SaveMemoryState drains all caches (hierarchy write backs + counter
// flush) and serializes the machine's persistent memory state to w.
func (m *Machine) SaveMemoryState(w io.Writer) error {
	m.Hier.FlushAll()
	m.MC.Flush()
	dev := m.Dev.Snapshot()
	img := m.Img.Snapshot()
	cp := checkpoint{
		Magic:    checkpointMagic,
		Pages:    sortedEntries(dev.Pages),
		Wear:     sortedEntries(dev.Wear),
		Flip:     sortedEntries(dev.Flip),
		Region:   sortedEntries(m.MC.CounterCache().SnapshotRegion()),
		Image:    sortedEntries(img),
		HasImage: img != nil,
		Journal:  m.Kernel.PersistentRegions(),
	}
	if err := gob.NewEncoder(w).Encode(&cp); err != nil {
		return fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadMemoryState restores a checkpoint produced by SaveMemoryState into
// this machine, replacing its memory state. The machine's configuration
// (especially the encryption key) must match the saving machine's, or
// decryption of the restored ciphertext will fail.
func (m *Machine) LoadMemoryState(r io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if cp.Magic != checkpointMagic {
		return fmt.Errorf("sim: not a checkpoint stream (magic %q)", cp.Magic)
	}
	m.Hier.Crash() // drop any cached state without writing back
	m.Dev.Restore(&nvm.State{Pages: entryMap(cp.Pages), Wear: entryMap(cp.Wear), Flip: entryMap(cp.Flip)})
	m.MC.CounterCache().RestoreRegion(entryMap(cp.Region))
	var img map[addr.PageNum][]byte
	if cp.HasImage {
		img = entryMap(cp.Image)
	}
	m.Img.Restore(img)
	if !m.Img.Enabled() {
		// Timing-only machine restoring a functional checkpoint: the
		// image stays empty by construction.
		return nil
	}
	if !cp.HasImage {
		// Functional machine restoring a timing-only checkpoint:
		// reconstruct the architectural contents from the ciphertext.
		m.MC.RecoverImage()
	}
	return nil
}
