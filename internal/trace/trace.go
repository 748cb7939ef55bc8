// Package trace records and replays application memory-operation traces.
//
// A trace is the sequence of operations a workload performed against its
// runtime (loads, stores, compute batches, allocations, memsets, shred
// syscalls). Because the simulator is deterministic, replaying a trace on
// a fresh machine with the same configuration reproduces the original
// run's memory behaviour exactly — and replaying it on a *differently*
// configured machine (baseline vs Silent Shredder, different counter
// cache, ...) answers "what would this exact workload have done on that
// hardware", which is how trace-driven architecture studies work.
//
// Binary format: an 8-byte magic/version header, then one 17-byte record
// per operation: kind (1) | va (8, little endian) | arg (8).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"silentshredder/internal/addr"
	"silentshredder/internal/apprt"
)

// Magic identifies trace files (7 bytes + version).
var Magic = [8]byte{'S', 'S', 'T', 'R', 'A', 'C', 'E', 1}

const recordSize = 1 + 8 + 8

// Writer streams trace records to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one operation record.
func (w *Writer) Write(op apprt.TraceOp) {
	if w.err != nil {
		return
	}
	var rec [recordSize]byte
	rec[0] = byte(op.Kind)
	binary.LittleEndian.PutUint64(rec[1:9], uint64(op.VA))
	binary.LittleEndian.PutUint64(rec[9:17], op.Arg)
	if _, err := w.w.Write(rec[:]); err != nil {
		w.err = err
		return
	}
	w.n++
}

// Hook returns a function suitable for Runtime.SetTraceHook.
func (w *Writer) Hook() func(apprt.TraceOp) { return w.Write }

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered records and reports any deferred write error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return fmt.Errorf("trace: %w", w.err)
	}
	return w.w.Flush()
}

// Reader streams trace records from an io.Reader.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != Magic {
		return nil, errors.New("trace: bad magic or unsupported version")
	}
	return &Reader{r: br}, nil
}

// Next returns the next record, or io.EOF at end of trace.
func (r *Reader) Next() (apprt.TraceOp, error) {
	var rec [recordSize]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return apprt.TraceOp{}, io.EOF
		}
		return apprt.TraceOp{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	return apprt.TraceOp{
		Kind: apprt.TraceKind(rec[0]),
		VA:   addr.Virt(binary.LittleEndian.Uint64(rec[1:9])),
		Arg:  binary.LittleEndian.Uint64(rec[9:17]),
	}, nil
}

// Replay executes one record against a runtime. Memset records carry the
// value and temporal/NT choice packed in Arg (size<<9 | nt<<8 | value).
// The dispatch lives on the runtime itself (apprt.Runtime.Apply) so that
// packages which cannot import trace — the sim crash harness — share it.
func Replay(rt *apprt.Runtime, op apprt.TraceOp) error {
	return rt.Apply(op)
}

// ReplayAll replays every record from r against rt, returning the number
// of operations replayed.
func ReplayAll(r io.Reader, rt *apprt.Runtime) (uint64, error) {
	tr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	var n uint64
	// Replaying must not re-record.
	rt.SetTraceHook(nil)
	for {
		op, err := tr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := Replay(rt, op); err != nil {
			return n, err
		}
		n++
	}
}
