package main

import (
	"fmt"
	"time"

	"silentshredder/internal/addr"
	"silentshredder/internal/aes"
	"silentshredder/internal/apprt"
	"silentshredder/internal/cache"
	"silentshredder/internal/ctr"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/sim"
	"silentshredder/internal/span"
	"silentshredder/internal/stats"
)

// ladder is the host cost, in ns per call, of each layer's public
// operations, probed on a finished machine. A probe that does not apply
// to the workload's machine (the shred command on a baseline controller,
// the tree when integrity is off) reads 0.
type ladder struct {
	aesBlock, ctrPad                                 float64
	statsObserve                                     float64
	physRead, physWrite                              float64
	nvmRead, nvmWrite                                float64
	treeUpdate, treeVerify                           float64
	cacheLookupHit, cacheInsert, cacheInvalPage      float64
	ccGetHit, ccGetMiss                              float64
	hierRead, hierWrite, hierShredInval              float64
	mcWrite, mcRead, mcShred, mcReadZero, mcZeroPage float64
	translate, fault                                 float64
}

// timeCalls returns the host ns per call of fn over n calls: the median of
// five batches, so that one preempted batch does not skew it. The call
// index keeps counting across batches, so probes that need fresh
// arguments on every call get them.
func timeCalls(n int, fn func(i int)) float64 {
	var batches [5]float64
	i := 0
	for b := range batches {
		t0 := time.Now()
		for end := i + n; i < end; i++ {
			fn(i)
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches[:])
}

// footprint returns up to max of the physical pages the run touched, in
// ascending order: every page that has encryption counters.
func footprint(m *sim.Machine, max int) []addr.PageNum {
	var pages []addr.PageNum
	m.MC.CounterCache().ForEachCurrent(func(p addr.PageNum, _ ctr.CounterBlock) {
		if len(pages) < max {
			pages = append(pages, p)
		}
	})
	return pages
}

// probeSink keeps the harness-overhead loop from being optimised away.
var probeSink addr.Phys

// probeLadder times each layer's calls on m, the finished machine of an
// untraced replay of w. The probes mutate m, so they run after its digest
// is taken. Layers are probed bottom-up; the order matters where a probe
// depends on state an earlier one left (the controller reads blocks its
// write probe wrote, and zero-fill reads pages its shred probe shredded).
func probeLadder(w workload, m *sim.Machine) (ladder, error) {
	var l ladder
	pages := footprint(m, 512)
	if len(pages) == 0 {
		return l, fmt.Errorf("ladder: the run touched no pages")
	}
	np := len(pages)
	// Block addresses are precomputed, so a timed loop holds little but
	// the call; the harness's own cost per call (an indirect call and an
	// index) is measured and subtracted from every probe.
	const nblocks = 1 << 14
	blocks := make([]addr.Phys, nblocks)
	for i := range blocks {
		blocks[i] = pages[i%np].BlockAddr((i / np) % addr.BlocksPerPage)
	}
	blk := func(i int) addr.Phys { return blocks[i&(nblocks-1)] }
	harness := timeCalls(1<<16, func(i int) { probeSink = blk(i) })
	probe := func(n int, fn func(i int)) float64 { return max(timeCalls(n, fn)-harness, 0) }

	var block [addr.BlockSize]byte
	var data []byte // device payload: nil on timing-only machines
	if w.data {
		data = block[:]
	}
	key := memctrl.DefaultConfig(w.mode).Key

	// aes and ctr on a fresh engine: one pad is four AES blocks; varying
	// the major counter makes every pad miss the engine's pad cache.
	c, err := aes.New(key)
	if err != nil {
		return l, fmt.Errorf("ladder: %w", err)
	}
	var dst [addr.BlockSize]byte
	l.aesBlock = probe(1<<14, func(i int) { c.EncryptBlocks(dst[:], block[:]) }) / 4
	eng, err := ctr.NewEngine(key)
	if err != nil {
		return l, fmt.Errorf("ladder: %w", err)
	}
	l.ctrPad = probe(1<<13, func(i int) { eng.Encrypt(dst[:], addr.PageNum(i), i%addr.BlocksPerPage, uint64(i), 1) })

	var h stats.Histogram
	l.statsObserve = probe(1<<16, func(i int) { h.Observe(float64(i&1023 + 2)) })

	word := make([]byte, 8)
	l.physRead = probe(1<<15, func(i int) { m.Img.Read(blk(i), word) })
	l.physWrite = probe(1<<15, func(i int) { m.Img.Write(blk(i), word) })

	l.nvmRead = probe(1<<14, func(i int) { m.Dev.ReadBlock(blk(i), data) })
	l.nvmWrite = probe(1<<14, func(i int) { m.Dev.WriteBlock(blk(i), data) })

	if m.MC.IntegrityEnabled() {
		tree := m.MC.IntegrityEngine()
		var cb ctr.CounterBlock
		l.treeUpdate = probe(1<<9, func(i int) {
			cb.Major = uint64(i)
			tree.Update(pages[i%np], cb.Encode())
		})
		l.treeVerify = probe(1<<10, func(i int) { tree.Verify(pages[i%np], cb.Encode()) })
	}

	// cache: hits on eight resident L1 lines; inserts into the LLC over
	// the footprint (evicting once it fills); page invalidation averaged
	// over every cache level, as the shred path invalidates them all.
	l1 := m.Hier.L1(0)
	for j := 0; j < 8; j++ {
		l1.Insert(blk(j), cache.Shared, false)
	}
	l.cacheLookupHit = probe(1<<16, func(i int) { l1.LookupHit(blk(i & 7)) })
	l4 := m.Hier.L4()
	l.cacheInsert = probe(1<<15, func(i int) { l4.Insert(blk(i), cache.Shared, false) })
	levels := allCaches(m)
	l.cacheInvalPage = probe(1<<8, func(i int) {
		for _, c := range levels {
			c.InvalidatePageCount(pages[i%np])
		}
	}) / float64(len(levels))

	// countercache: hits rotate over eight resident pages; misses fetch
	// counter blocks of pages far above any frame the kernel hands out.
	cc := m.MC.CounterCache()
	for j := 0; j < 8; j++ {
		cc.Get(pages[j%np])
	}
	l.ccGetHit = probe(1<<15, func(i int) { cc.Get(pages[i&7%np]) })
	l.ccGetMiss = probe(1<<12, func(i int) { cc.Get(addr.PageNum(1<<30 + i)) })

	// hier: L1 hits for reads and owned-line writes, then shred
	// invalidation of footprint pages.
	hr := m.Hier
	for j := 0; j < 16; j++ {
		hr.Read(0, blk(j))
	}
	l.hierRead = probe(1<<15, func(i int) { hr.Read(0, blk(i&7)) })
	for j := 8; j < 16; j++ {
		hr.Write(0, blk(j))
	}
	l.hierWrite = probe(1<<15, func(i int) { hr.Write(0, blk(8+i&7)) })
	l.hierShredInval = probe(1<<8, func(i int) { hr.ShredInvalidate(pages[i%np]) })

	// memctrl: write backs over the footprint, reads of the blocks just
	// written (data reads, never zero fills), then on a Silent Shredder
	// controller shred commands followed by reads of the shredded pages.
	mc := m.MC
	l.mcWrite = probe(1<<11, func(i int) { mc.WriteBlock(blk(i)) })
	l.mcRead = probe(1<<11, func(i int) { mc.ReadBlock(blk(i), data) })
	if w.mode == memctrl.SilentShredder {
		l.mcShred = probe(max(np, 1<<8), func(i int) { mc.Shred(pages[i%np]) })
		l.mcReadZero = probe(1<<11, func(i int) { mc.ReadBlock(blk(i), data) })
	}
	l.mcZeroPage = probe(1<<6, func(i int) { mc.ZeroPageDirect(pages[i%np]) })

	// kernel: first-touch faults on a fresh mapping (each allocates and
	// clears a frame with the workload's zeroing strategy), then TLB-hit
	// translations of sixteen of those pages.
	k := m.Kernel
	proc := k.NewProcess()
	const faults = 1 << 6
	va := k.Mmap(proc, 5*faults)
	l.fault = probe(faults, func(i int) { k.Translate(0, proc, va+addr.Virt(i*addr.PageSize), true) })
	l.translate = probe(1<<15, func(i int) { k.Translate(0, proc, va+addr.Virt(i&15*addr.PageSize), false) })
	return l, nil
}

// allCaches lists every level of m's hierarchy: each core's L1 and L2,
// then the shared L3 and L4.
func allCaches(m *sim.Machine) []*cache.Cache {
	var cs []*cache.Cache
	for c := 0; c < m.Cfg.Hier.Cores; c++ {
		cs = append(cs, m.Hier.L1(c), m.Hier.L2(c))
	}
	return append(cs, m.Hier.L3(), m.Hier.L4())
}

// layerCounts are the calls each layer received in the traced run, from
// the machine's registry, the caches' own counters and the trace.
type layerCounts struct {
	loads, stores                             float64
	pageFaults, tlbMisses                     float64
	lookups, cacheMisses                      float64
	llcMisses, pageInvals                     float64
	dataReads, zeroFills, dataWrites, zeroing float64
	shreds, reencrypts, readsBlocked          float64
	ccHits, ccMisses, ccWritebacks            float64
	treeUpdates, treeVerifies, hashOps        float64
	nvmReads, nvmWrites, bankConflicts        float64
	pads                                      float64
}

func countLayers(w workload, m *sim.Machine, ops opCounts) layerCounts {
	snap := m.Snapshot()
	get := func(path string) float64 {
		v, _ := snap.Lookup(path) // statistics a machine does not register read 0
		return v
	}
	n := layerCounts{
		loads:         float64(ops[apprt.TraceLoad]),
		stores:        float64(ops[apprt.TraceStore]),
		pageFaults:    get("kernel.page_faults"),
		llcMisses:     get("hier.llc_misses"),
		pageInvals:    get("hier.page_invalidations"),
		dataReads:     get("memctrl.data_reads"),
		zeroFills:     get("memctrl.zero_fill_reads"),
		dataWrites:    get("memctrl.data_writes"),
		zeroing:       get("memctrl.zeroing_writes"),
		shreds:        get("memctrl.shred_commands"),
		reencrypts:    get("memctrl.reencryptions"),
		readsBlocked:  get("memctrl.reads_blocked_by_writes"),
		ccHits:        get("ctrcache.hits"),
		ccMisses:      get("ctrcache.misses"),
		ccWritebacks:  get("ctrcache.writebacks"),
		treeUpdates:   get("merkle.updates"),
		treeVerifies:  get("merkle.verifies"),
		hashOps:       get("merkle.hash_ops"),
		nvmReads:      get("nvm.reads"),
		nvmWrites:     get("nvm.writes"),
		bankConflicts: get("nvm.bank_conflicts"),
	}
	for c := 0; c < m.Cfg.Hier.Cores; c++ {
		n.tlbMisses += get(fmt.Sprintf("tlb%d.misses", c))
	}
	// Every cache.Cache lookup counts one hit or one miss: the hierarchy's
	// levels and the counter cache's tag store.
	for _, c := range allCaches(m) {
		n.lookups += float64(c.Hits() + c.Misses())
		n.cacheMisses += float64(c.Misses())
	}
	n.lookups += n.ccHits + n.ccMisses
	n.cacheMisses += n.ccMisses
	if w.data {
		// With the data path on, every controller data read and data write
		// (zeroing and re-encryption included) applies one pad.
		n.pads = n.dataReads + n.dataWrites
	}
	return n
}

// layerEst is one layer's estimated host ms per run: the ladder's self ns
// of each call times the call's in-situ count.
type layerEst struct {
	layer string
	ms    float64
}

// estimate derives each layer's est_ms. A call's self ns is its probed ns
// minus the probed ns of the calls it makes into lower layers, clamped at
// zero. The counts behind each term are documented in README.md.
func estimate(w workload, l ladder, n layerCounts) []layerEst {
	self := func(ns float64, below ...float64) float64 {
		for _, b := range below {
			ns -= b
		}
		return max(ns, 0)
	}
	levels := float64(2*cores + 2) // caches ShredInvalidate visits
	pad, tree, physBlock, physReads := 0.0, 0.0, 0.0, n.loads
	if w.data {
		// Controller writes read the plaintext block they encrypt.
		pad, physBlock, physReads = l.ctrPad, l.physRead, n.loads+n.dataWrites
	}
	if w.merkle {
		tree = l.treeUpdate
	}
	pageClear := l.mcZeroPage
	if w.zero == kernel.ZeroShred {
		pageClear = l.mcShred
	}
	// ms sums (ns per call, calls) pairs into ms.
	ms := func(terms ...float64) float64 {
		var ns float64
		for i := 0; i < len(terms); i += 2 {
			ns += terms[i] * terms[i+1]
		}
		return ns / 1e6
	}
	return []layerEst{
		{"kernel", ms(l.translate, n.loads+n.stores,
			self(l.fault, l.translate, l.hierShredInval, pageClear), n.pageFaults)},
		{"cache", ms(l.cacheLookupHit, n.lookups, l.cacheInsert, n.cacheMisses,
			l.cacheInvalPage, n.pageInvals*levels)},
		{"hier", ms(self(l.hierRead, l.cacheLookupHit), n.loads,
			self(l.hierWrite, l.cacheLookupHit), n.stores,
			self(l.hierShredInval, levels*l.cacheInvalPage), n.pageInvals)},
		{"memctrl", ms(self(l.mcRead, l.ccGetHit, l.nvmRead, pad, l.statsObserve), n.dataReads,
			self(l.mcReadZero, l.ccGetHit, l.statsObserve), n.zeroFills,
			self(l.mcWrite, l.ccGetHit, l.nvmWrite, pad, physBlock, tree), n.dataWrites,
			self(l.mcShred, l.ccGetHit, tree), n.shreds,
			self(l.mcZeroPage, addr.BlocksPerPage*l.mcWrite), n.zeroing/addr.BlocksPerPage)},
		{"countercache", ms(self(l.ccGetHit, l.cacheLookupHit), n.ccHits,
			self(l.ccGetMiss, l.cacheLookupHit, l.cacheInsert, l.nvmRead), n.ccMisses)},
		{"ctr", ms(self(l.ctrPad, 4*l.aesBlock), n.pads)},
		{"aes", ms(l.aesBlock, 4*n.pads)},
		{"integrity", ms(l.treeUpdate, n.treeUpdates, l.treeVerify, n.treeVerifies)},
		{"nvm", ms(l.nvmRead, n.nvmReads, l.nvmWrite, n.nvmWrites)},
		{"physmem", ms(l.physRead, physReads, l.physWrite, n.stores)},
		{"stats", ms(l.statsObserve, n.dataReads+n.zeroFills)},
	}
}

// busyCycles sums the program's modelled busy cycles per span layer over
// the top-level operations (application reads and writes, and the
// controller's Merkle flush). Page clears and re-encryptions nest inside
// the read or write that caused them and already credit their cycles to
// it, so counting them again would double count.
func busyCycles(agg *span.Agg) [span.LayerCount]float64 {
	var out [span.LayerCount]float64
	for _, op := range []span.Op{span.OpRead, span.OpWrite, span.OpMerkleFlush} {
		for l, c := range agg.Total[op].Seg {
			out[l] += float64(c)
		}
	}
	return out
}

// sampleQuantile is the q-quantile of the traced run's in-situ host ns
// samples of one operation kind (0 when the kind never ran).
func sampleQuantile(t *tracer, kind apprt.TraceKind, q float64) float64 {
	return quantile(t.samples[kind], q)
}
