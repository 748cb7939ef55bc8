package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/workloads/graph"
	"silentshredder/internal/workloads/spec"
)

// cores is every workload's simulated core count; each core replays its
// own trace.
const cores = 2

// cacheScale divides the Table 1 cache sizes, as the experiments' default
// machines do.
const cacheScale = 8

// workload is one set of benchmark inputs: a per-core program whose
// operation trace is recorded once, and the machine the trace is replayed
// on. README.md records why each workload was chosen.
type workload struct {
	name   string
	mode   memctrl.Mode
	zero   kernel.ZeroMode
	data   bool // functional data path: plaintext image and ciphertext NVM
	merkle bool // Bonsai Merkle tree over the counters (default eager engine)
	// program runs one core's share of the workload; shrink divides its
	// input size.
	program func(rt *apprt.Runtime, seed int64, shrink int)
}

var workloads = []workload{
	{name: "spec_timing", mode: memctrl.SilentShredder, zero: kernel.ZeroShred, program: specMCF},
	{name: "churn_ntzero", mode: memctrl.Baseline, zero: kernel.ZeroNonTemporal, data: true, program: churn},
	{name: "churn_shred", mode: memctrl.SilentShredder, zero: kernel.ZeroShred, data: true, program: churn},
	{name: "graph_merkle", mode: memctrl.SilentShredder, zero: kernel.ZeroShred, data: true, merkle: true, program: pagerank},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the machine every replay of w runs on.
func (w workload) config() sim.Config {
	cfg := sim.ScaledConfig(w.mode, w.zero, cacheScale)
	cfg.Hier.Cores = cores
	cfg.MemPages = 1 << 20 // 4GB pool, as in the experiments: no run goes out of memory
	cfg.StoreData = w.data
	cfg.MemCtrl.Integrity = w.merkle
	return cfg
}

// specMCF is the synthetic SPEC mcf profile at full size.
func specMCF(rt *apprt.Runtime, seed int64, shrink int) {
	p, ok := spec.ByName("mcf")
	if !ok {
		panic("bench: the spec package has no mcf profile")
	}
	p.InitPages /= shrink
	spec.Run(rt, p, seed)
}

// churn is an allocation-churn program. Each round maps fresh pages,
// first-touches each with stores to distinct random blocks, loads random
// blocks of the page (mostly ones it never wrote), and frees the pages, so
// the next round's faults reallocate and clear the frames the previous
// round used. Loads pick blocks with replacement, so how many hit a block
// already cached varies with the seed, as the simulated results should.
func churn(rt *apprt.Runtime, seed int64, shrink int) {
	const rounds, storesPerPage, loadsPerPage = 6, 8, 32
	pages := 256 / shrink
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		base := rt.Malloc(pages * addr.PageSize)
		for pg := 0; pg < pages; pg++ {
			page := base + addr.Virt(pg*addr.PageSize)
			for _, b := range rng.Perm(addr.BlocksPerPage)[:storesPerPage] {
				rt.Store(page+addr.Virt(b*addr.BlockSize), rng.Uint64())
			}
			for i := 0; i < loadsPerPage; i++ {
				rt.Load(page + addr.Virt(rng.Intn(addr.BlocksPerPage)*addr.BlockSize))
			}
			rt.Compute(64)
		}
		rt.Free(base, pages*addr.PageSize)
	}
}

// pagerank builds a power-law graph in simulated memory and runs two
// PageRank iterations over it.
func pagerank(rt *apprt.Runtime, seed int64, shrink int) {
	g := graph.Build(rt, graph.Gen{V: 4096 / shrink, E: 32768 / shrink, Seed: seed, Skew: 1.2})
	g.PageRank(2)
}

// record runs w's program once per core on a machine configured like the
// replay machine and returns each core's operation trace. The cores run
// one after the other: a process's virtual layout and loaded values do
// not depend on the other processes, so the traces replay under any
// interleave. Each core's program gets its own seed drawn from seed.
func record(w workload, seed int64, shrink int) ([][]apprt.TraceOp, error) {
	m, err := sim.New(w.config())
	if err != nil {
		return nil, fmt.Errorf("recording machine: %w", err)
	}
	seeds := rand.New(rand.NewSource(seed))
	traces := make([][]apprt.TraceOp, cores)
	for c := range traces {
		rt := m.Runtime(c)
		var ops []apprt.TraceOp
		rt.SetTraceHook(func(op apprt.TraceOp) { ops = append(ops, op) })
		w.program(rt, seeds.Int63(), shrink)
		traces[c] = ops
	}
	return traces, nil
}

// traceHash is the SHA-256 of every core's trace, used to check that a
// seed always generates the same inputs.
func traceHash(traces [][]apprt.TraceOp) string {
	h := sha256.New()
	var rec [17]byte
	for c, ops := range traces {
		fmt.Fprintf(h, "core %d: %d ops\n", c, len(ops))
		for _, op := range ops {
			rec[0] = byte(op.Kind)
			binary.LittleEndian.PutUint64(rec[1:9], uint64(op.VA))
			binary.LittleEndian.PutUint64(rec[9:17], op.Arg)
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opCounts counts the trace operations of each kind across all cores.
type opCounts [apprt.TraceShredRange + 1]uint64

func countOps(traces [][]apprt.TraceOp) opCounts {
	var n opCounts
	for _, ops := range traces {
		for _, op := range ops {
			n[op.Kind]++
		}
	}
	return n
}

// memOps is the number of operations that touch memory or the allocator,
// that is every operation but Compute.
func (n opCounts) memOps() uint64 {
	var t uint64
	for k, c := range n {
		if apprt.TraceKind(k) != apprt.TraceCompute {
			t += c
		}
	}
	return t
}
