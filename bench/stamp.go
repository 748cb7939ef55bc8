package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp records the environment a result was measured in, so results from
// different machines or loads are not compared unknowingly.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after"`
	PGOSHA256  string `json:"pgo_profile_sha256"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"git_commit"`
}

func newStamp(seed int64) stamp {
	s := stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		LoadBefore: loadavg(),
		PGOSHA256:  "none",
		Seed:       seed,
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build records the PGO profile's path and, when built inside a
	// git checkout, the commit.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "-pgo":
				if data, err := os.ReadFile(kv.Value); err == nil {
					sum := sha256.Sum256(data)
					s.PGOSHA256 = hex.EncodeToString(sum[:])
				}
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					s.Commit += "+modified"
				}
			}
		}
	}
	return s
}

// loadavg returns the 1, 5 and 15 minute load averages.
func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}
