// Command leakscan is the attack-model forensics tool: it walks a DIMM
// image (a memory-state checkpoint written by shredsim -save-nvm or
// sim.SaveMemoryState) the way an adversary with physical access would —
// scanning raw cells for plaintext — and reports what it finds.
//
// On a correctly operating secure controller the data region contains
// only ciphertext, so a scan for any plaintext pattern comes up empty;
// the tool exists to demonstrate (and regression-check) exactly that.
//
//	leakscan -image dimm.img -pattern "BEGIN RSA PRIVATE KEY"
//	leakscan -image dimm.img -entropy   # per-page byte-entropy summary
//	leakscan -image dimm.img -pattern secret -format json  # machine-readable
//
// With -crash N the tool scans post-crash recovered images instead of a
// checkpoint: it replays a seeded workload on a crash-safe Silent
// Shredder machine, cuts power at N evenly spaced device-write indices
// (plus quiescence), recovers each time, and scans every recovered image
// for pre-shred plaintext — bytes that a completed shred promised were
// gone. Any hit is a leak and exits nonzero.
//
//	leakscan -crash 16 -seed 42
//
// With -attack the tool becomes the adversarial driver: it runs the
// internal/adversary engine — the remanence reader, the crash-window
// scavenger and the stale-counter replayer — against one defender
// personality (-personality plain|encrypted|merkle) under one physical
// shred policy (-policy zero-cost|duty-to-delete|multi-pass) and
// reports each attacker's score. Any recovered pre-shred byte exits
// nonzero.
//
//	leakscan -attack all -personality merkle -policy zero-cost
//	leakscan -attack replay -personality encrypted -format json
//
// -format json replaces the human narration with one JSON findings
// report on stdout (same exit codes), for CI and downstream tooling.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"silentshredder/internal/addr"
	"silentshredder/internal/adversary"
	"silentshredder/internal/exper"
	"silentshredder/internal/kernel"
	"silentshredder/internal/memctrl"
	"silentshredder/internal/obs"
	"silentshredder/internal/oracle"
	"silentshredder/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, dispatches the
// selected mode, and returns the process exit code (0 clean, 1 leak or
// runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		image   = fs.String("image", "", "DIMM image / checkpoint file (required unless -crash or -attack)")
		pattern = fs.String("pattern", "", "plaintext pattern to scan for")
		entropy = fs.Bool("entropy", false, "print per-page byte-entropy summary")
		scale   = fs.Int("scale", 64, "cache scale of the simulated machine")
		crash   = fs.Int("crash", 0, "scan post-crash recovered images: power-cut a seeded workload at this many write indices")
		seed    = fs.Int64("seed", 42, "workload seed for -crash and -attack")
		attack  = fs.String("attack", "", "run the adversary engine: all or a comma-separated subset of remanence,scavenger,replay")
		pers    = fs.String("personality", "merkle", "defender personality for -attack: plain | encrypted | merkle")
		policy  = fs.String("policy", "zero-cost", "physical shred policy for -attack: zero-cost | duty-to-delete | multi-pass")
		format  = fs.String("format", "text", "findings report: text | json")
	)
	var profCfg obs.ProfileConfig
	profCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *format {
	case "text", "json":
	default:
		fmt.Fprintf(stderr, "leakscan: unknown format %q (want text or json)\n", *format)
		return 2
	}
	cores := 1 // an image scan loads the checkpoint into a one-core shell
	if *attack != "" || *crash > 0 {
		cores = 2
	}
	if err := exper.CheckMachine(cores, *scale); err != nil {
		fmt.Fprintln(stderr, "leakscan: "+err.Error())
		return 2
	}
	stopProf, perr := profCfg.Start()
	if perr != nil {
		fmt.Fprintln(stderr, "leakscan: "+perr.Error())
		return 1
	}
	defer stopProf()

	if *attack != "" {
		attacks, err := adversary.ParseAttackers(*attack)
		if err != nil {
			fmt.Fprintln(stderr, "leakscan: "+err.Error())
			return 2
		}
		p, err := adversary.ParsePersonality(*pers)
		if err != nil {
			fmt.Fprintln(stderr, "leakscan: "+err.Error())
			return 2
		}
		pol, err := memctrl.ParseShredPolicy(*policy)
		if err != nil {
			fmt.Fprintln(stderr, "leakscan: "+err.Error())
			return 2
		}
		return attackScan(stdout, stderr, *scale, *seed, p, pol, attacks, *format)
	}
	if *crash > 0 {
		return crashScan(stdout, stderr, *scale, *seed, *crash, *format)
	}
	if *image == "" || (*pattern == "" && !*entropy) {
		fs.Usage()
		return 2
	}
	return imageScan(stdout, stderr, *image, *pattern, *entropy, *scale, *format)
}

// entropyPage is one page's byte-entropy finding.
type entropyPage struct {
	Page        uint64  `json:"page"`
	BitsPerByte float64 `json:"bits_per_byte"`
}

// imageReport is the machine-readable result of an image scan.
type imageReport struct {
	Image        string        `json:"image"`
	Pattern      string        `json:"pattern,omitempty"`
	PagesScanned int           `json:"pages_scanned"`
	LeakPages    []uint64      `json:"leak_pages"`
	Clean        bool          `json:"clean"`
	Lowest       []entropyPage `json:"lowest_entropy_pages,omitempty"`
	Highest      *entropyPage  `json:"highest_entropy_page,omitempty"`
}

func imageScan(stdout, stderr io.Writer, image, pattern string, entropy bool, scale int, format string) int {
	f, err := os.Open(image)
	if err != nil {
		fmt.Fprintln(stderr, "leakscan: "+err.Error())
		return 1
	}
	defer f.Close()

	// Load the image into a machine shell: leakscan only inspects the
	// device contents, never the decrypting datapath — the adversary has
	// the DIMM, not the processor.
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, scale)
	cfg.Hier.Cores = 1
	m, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "leakscan: "+err.Error())
		return 1
	}
	if err := m.LoadMemoryState(f); err != nil {
		fmt.Fprintln(stderr, "leakscan: "+err.Error())
		return 1
	}

	rep := imageReport{Image: image, Pattern: pattern, LeakPages: []uint64{}}
	var ents []entropyPage
	m.Dev.ForEachPage(func(p addr.PageNum, data *[addr.PageSize]byte) {
		rep.PagesScanned++
		if pattern != "" && bytes.Contains(data[:], []byte(pattern)) {
			rep.LeakPages = append(rep.LeakPages, uint64(p))
			if format == "text" {
				fmt.Fprintf(stdout, "LEAK: pattern found in page %v\n", p)
			}
		}
		if entropy {
			ents = append(ents, entropyPage{uint64(p), byteEntropy(data[:])})
		}
	})
	rep.Clean = len(rep.LeakPages) == 0
	if entropy {
		sort.Slice(ents, func(i, j int) bool {
			if ents[i].BitsPerByte != ents[j].BitsPerByte {
				return ents[i].BitsPerByte < ents[j].BitsPerByte
			}
			return ents[i].Page < ents[j].Page
		})
		for i := 0; i < len(ents) && i < 8; i++ {
			rep.Lowest = append(rep.Lowest, ents[i])
		}
		if n := len(ents); n > 0 {
			rep.Highest = &ents[n-1]
		}
	}

	if format == "json" {
		if err := writeJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "leakscan: "+err.Error())
			return 1
		}
		if !rep.Clean {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "scanned %d resident pages\n", rep.PagesScanned)
	code := 0
	if pattern != "" {
		if rep.Clean {
			fmt.Fprintf(stdout, "pattern %q not found: the DIMM holds no such plaintext\n", pattern)
		} else {
			fmt.Fprintf(stdout, "%d page(s) leak the pattern\n", len(rep.LeakPages))
			code = 1
		}
	}
	if entropy {
		fmt.Fprintln(stdout, "\nlowest-entropy pages (plaintext and zeroed pages rank lowest):")
		for _, e := range rep.Lowest {
			fmt.Fprintf(stdout, "  %v  %.3f bits/byte\n", addr.PageNum(e.Page), e.BitsPerByte)
		}
		if rep.Highest != nil {
			fmt.Fprintf(stdout, "highest: %v  %.3f bits/byte (ciphertext approaches 8.0)\n",
				addr.PageNum(rep.Highest.Page), rep.Highest.BitsPerByte)
		}
	}
	return code
}

// crashCut is one crash point's finding.
type crashCut struct {
	Label        string `json:"label"`
	WriteIndex   uint64 `json:"write_index"`
	Quiescence   bool   `json:"quiescence,omitempty"`
	Crashed      bool   `json:"crashed"`
	PagesScanned int    `json:"pages_scanned"`
	Leak         bool   `json:"leak"`
	Error        string `json:"error,omitempty"`
}

// crashReport is the machine-readable result of a -crash sweep.
type crashReport struct {
	Seed         int64      `json:"seed"`
	Points       int        `json:"points"`
	DeviceWrites uint64     `json:"device_writes"`
	Forbidden    int        `json:"forbidden_fingerprints"`
	Cuts         []crashCut `json:"cuts"`
	Leaks        int        `json:"leaks"`
	Clean        bool       `json:"clean"`
}

// crashScan is the post-crash forensics mode: replay a seeded workload on
// a crash-safe Silent Shredder machine (write-through counter cache, so
// shred effects persist eagerly and every cut point is covered), power-cut
// at evenly spaced device-write indices, recover, and scan each recovered
// image for pre-shred plaintext. The scan itself is the persistent-state
// projection check: every fingerprintable 64-byte block of every page a
// completed shred cleared is forbidden to resurface.
func crashScan(stdout, stderr io.Writer, scale int, seed int64, points int, format string) int {
	w := oracle.Generate(oracle.DefaultGenConfig(seed))
	cfg := sim.ScaledConfig(memctrl.SilentShredder, kernel.ZeroShred, scale)
	cfg.Hier.Cores = 2
	cfg.MemPages = 8192
	cfg.StoreData = true
	cfg.MemCtrl.CounterCache.WriteThrough = true

	// Quiescent run: measures the write-index domain of the schedule.
	_, base, err := sim.ReplayToCrash(cfg, w, ^uint64(0))
	if err != nil {
		fmt.Fprintln(stderr, "leakscan: "+err.Error())
		return 1
	}
	rep := crashReport{Seed: seed, Points: points, DeviceWrites: base.Writes, Forbidden: base.Forbidden}
	if format == "text" {
		fmt.Fprintf(stdout, "workload seed %d: %d device writes, %d forbidden pre-shred fingerprints\n",
			seed, base.Writes, base.Forbidden)
	}

	for i := 0; i <= points; i++ {
		idx := ^uint64(0)
		label := "quiescence"
		if i < points {
			idx = uint64(i) * base.Writes / uint64(points)
			label = fmt.Sprintf("write %d", idx)
		}
		cut := crashCut{Label: label, WriteIndex: idx, Quiescence: i == points}
		m, out, err := sim.ReplayToCrash(cfg, w, idx)
		if err != nil {
			cut.Leak = true
			cut.Error = err.Error()
			rep.Leaks++
			rep.Cuts = append(rep.Cuts, cut)
			if format == "text" {
				fmt.Fprintf(stdout, "LEAK at %s (op %d): %v\n", label, out.OpIndex, err)
			}
			continue
		}
		m.Img.ForEachPage(func(addr.PageNum, *[addr.PageSize]byte) { cut.PagesScanned++ })
		cut.Crashed = out.Crashed
		rep.Cuts = append(rep.Cuts, cut)
		if format == "text" {
			state := "mid-op crash"
			if !out.Crashed {
				state = "clean cut"
			}
			fmt.Fprintf(stdout, "  %-16s %s, recovered image clean (%d pages scanned)\n", label+":", state, cut.PagesScanned)
		}
	}
	rep.Clean = rep.Leaks == 0

	if format == "json" {
		if err := writeJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "leakscan: "+err.Error())
			return 1
		}
		if !rep.Clean {
			return 1
		}
		return 0
	}
	if rep.Leaks > 0 {
		fmt.Fprintf(stdout, "%d crash point(s) leaked pre-shred plaintext\n", rep.Leaks)
		return 1
	}
	fmt.Fprintf(stdout, "no pre-shred plaintext resurfaced at any of %d crash points\n", points+1)
	return 0
}

// attackReport is the machine-readable result of an -attack run.
type attackReport struct {
	adversary.Result
	TotalLeaked int  `json:"total_leaked_bytes"`
	Clean       bool `json:"clean"`
}

// attackScan is the adversarial-driver mode: run the selected attackers
// against one (personality, policy) defender and score the results. The
// exit code is 1 exactly when any attacker recovered forbidden bytes.
func attackScan(stdout, stderr io.Writer, scale int, seed int64, pers adversary.Personality,
	policy memctrl.ShredPolicy, attacks []adversary.Attacker, format string) int {
	res, err := adversary.Run(adversary.Config{
		Seed:        seed,
		Scale:       scale,
		Personality: pers,
		Policy:      policy,
	}, attacks)
	if err != nil {
		fmt.Fprintln(stderr, "leakscan: "+err.Error())
		return 1
	}
	rep := attackReport{Result: res, TotalLeaked: res.TotalLeaked(), Clean: res.TotalLeaked() == 0}

	if format == "json" {
		if err := writeJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "leakscan: "+err.Error())
			return 1
		}
		if !rep.Clean {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "adversary: %s defender, %s shredding, seed %d (%d forbidden fingerprints)\n",
		res.Personality, res.Policy, res.Seed, res.Stats.Forbidden)
	fmt.Fprintf(stdout, "  run cost: %d shreds, %d scrub writes, %d device writes\n",
		res.Stats.ShredCommands, res.Stats.ScrubWrites, res.Stats.DeviceWrites)
	for _, o := range []*adversary.Outcome{res.Remanence, res.Scavenger, res.Replay} {
		if o == nil {
			continue
		}
		switch {
		case o.Detected:
			fmt.Fprintf(stdout, "  %-10s %d attempt(s), DETECTED: %s\n", o.Attacker+":", o.Attempts, o.Detection)
		case o.LeakedBytes > 0:
			fmt.Fprintf(stdout, "  %-10s %d attempt(s), LEAKED %d byte(s)\n", o.Attacker+":", o.Attempts, o.LeakedBytes)
		default:
			fmt.Fprintf(stdout, "  %-10s %d attempt(s), defeated (0 bytes recovered)\n", o.Attacker+":", o.Attempts)
		}
	}
	if !rep.Clean {
		fmt.Fprintf(stdout, "ATTACK SUCCEEDED: %d pre-shred byte(s) recovered\n", rep.TotalLeaked)
		return 1
	}
	fmt.Fprintln(stdout, "no attacker recovered any pre-shred byte")
	return 0
}

// writeJSON renders one findings report to stdout.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// byteEntropy computes the Shannon entropy of the page in bits per byte.
func byteEntropy(data []byte) float64 {
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	h := 0.0
	n := float64(len(data))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}
