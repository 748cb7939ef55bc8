package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
)

// packageShares reads a CPU profile in pprof's format (gzip-compressed
// profile.proto) and returns each package's share of the sampled CPU time.
// A sample is charged to the innermost frame that belongs to a simulator
// package, so standard-library and runtime work (SHA-256 hashing, map
// lookups, allocation) counts toward the layer that asked for it. The
// benchmark's own frames count as "bench"; samples without any such frame
// (the garbage collector's workers, the scheduler) as "go-runtime".
func packageShares(file string) (map[string]float64, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", file, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", file, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", file, err)
	}
	funcPkg := make(map[uint64]string, len(p.funcName))
	for id, name := range p.funcName {
		funcPkg[id] = layerOfFunc(p.str(name))
	}
	totals := make(map[string]float64)
	var sum float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // CPU ns: the last sample type
		pkg := "go-runtime"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range p.locFuncs[loc] { // inlined callee first
				if l := funcPkg[fn]; l != "" {
					pkg = l
					break stack
				}
			}
		}
		totals[pkg] += v
		sum += v
	}
	if sum == 0 {
		return nil, fmt.Errorf("profile %s: no samples", file)
	}
	for k := range totals {
		totals[k] /= sum
	}
	return totals, nil
}

// layerOfFunc maps a symbol to its simulator package ("cache" for
// silentshredder/internal/cache.(*Cache).LookupHit), "bench" for this
// program, and "" for anything else.
func layerOfFunc(fn string) string {
	const prefix = "silentshredder/internal/"
	switch {
	case strings.HasPrefix(fn, prefix):
		rest := fn[len(prefix):]
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			rest = rest[:i]
		}
		return path.Base(rest)
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// profile holds the parts of a decoded profile.proto the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, inlined callee first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(raw, func(field int, v uint64, msg []byte) error {
		switch field {
		case profSample:
			var s sample
			err := eachField(msg, func(field int, v uint64, packed []byte) error {
				switch field {
				case sampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(field int, v uint64, line []byte) error {
				switch field {
				case locID:
					id = v
				case locLine:
					return eachField(line, func(field int, v uint64, _ []byte) error {
						if field == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(field int, v uint64, _ []byte) error {
				switch field {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited payload. Fixed-width
// fields, which profile.proto does not use for what is read here, are
// skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0: // varint
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5: // fixed 64-bit, fixed 32-bit
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			b = b[width:]
			continue
		case 2: // length-delimited
			size, n := binary.Uvarint(b)
			if n <= 0 || size > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(size)], b[n+int(size):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: one
// unpacked value v, or a packed payload of varints.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
