package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary spill format: a 8-byte magic header ("SSOBS\x01\x00\x00")
// followed by fixed-width little-endian records. Each record is 34
// bytes:
//
//	offset size field
//	0      8    Seq
//	8      8    TS (cycles)
//	16     1    Kind
//	17     1    Core + 1 (0 encodes core -1, "no core context")
//	18     8    Addr
//	26     8    Arg
//
// Streams concatenate: obscli writes one header and its records per run
// into the same file, and DecodeSpill reads them back as one slice.

var spillMagic = [8]byte{'S', 'S', 'O', 'B', 'S', 1, 0, 0}

const spillRecordSize = 34

// EncodeSpill writes the full spill representation (header + records)
// of events to w.
func EncodeSpill(w io.Writer, events []Event) error {
	if _, err := w.Write(spillMagic[:]); err != nil {
		return err
	}
	return writeRecords(w, events)
}

func writeRecords(w io.Writer, events []Event) error {
	// Encode in chunks to bound the staging buffer.
	const chunk = 4096
	buf := make([]byte, 0, chunk*spillRecordSize)
	for i, ev := range events {
		var rec [spillRecordSize]byte
		binary.LittleEndian.PutUint64(rec[0:8], ev.Seq)
		binary.LittleEndian.PutUint64(rec[8:16], ev.TS)
		rec[16] = byte(ev.Kind)
		rec[17] = byte(ev.Core + 1)
		binary.LittleEndian.PutUint64(rec[18:26], ev.Addr)
		binary.LittleEndian.PutUint64(rec[26:34], ev.Arg)
		buf = append(buf, rec[:]...)
		if len(buf) == cap(buf) || i == len(events)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// DecodeSpill reads a spill stream (header + records) back into an
// event slice. It tolerates concatenated streams (repeated headers), as
// obscli writes one stream per run.
func DecodeSpill(r io.Reader) ([]Event, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil
		}
		return nil, fmt.Errorf("obs: reading spill header: %w", err)
	}
	if hdr != spillMagic {
		return nil, fmt.Errorf("obs: bad spill magic %x", hdr)
	}
	var out []Event
	var rec [spillRecordSize]byte
	for {
		_, err := io.ReadFull(r, rec[:1])
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("obs: reading spill record: %w", err)
		}
		// A repeated magic header is allowed between records.
		if rec[0] == spillMagic[0] {
			// Could be a record whose Seq low byte happens to match;
			// disambiguate by peeking the full 8 bytes and comparing.
			if _, err := io.ReadFull(r, rec[1:8]); err != nil {
				return nil, fmt.Errorf("obs: reading spill record: %w", err)
			}
			if [8]byte(rec[:8]) == spillMagic {
				continue
			}
			if _, err := io.ReadFull(r, rec[8:]); err != nil {
				return nil, fmt.Errorf("obs: reading spill record: %w", err)
			}
		} else {
			if _, err := io.ReadFull(r, rec[1:]); err != nil {
				return nil, fmt.Errorf("obs: reading spill record: %w", err)
			}
		}
		out = append(out, Event{
			Seq:  binary.LittleEndian.Uint64(rec[0:8]),
			TS:   binary.LittleEndian.Uint64(rec[8:16]),
			Kind: Kind(rec[16]),
			Core: int32(rec[17]) - 1,
			Addr: binary.LittleEndian.Uint64(rec[18:26]),
			Arg:  binary.LittleEndian.Uint64(rec[26:34]),
		})
	}
}
