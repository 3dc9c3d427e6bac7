package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxDocBytes bounds the size of any single document ReadJob or
// ReadJobs will decode: 16 MiB. Specs are small — even one embedding a
// generated trace is a few hundred KiB — so the bound exists purely so
// a malformed or hostile payload (a network request body, a corrupted
// file) cannot make the decoder buffer unbounded input. It is the one
// size rule: input over the bound fails with an ErrDocTooLarge-classed
// error whatever its content, malformed or not (sweepd answers 413);
// test with errors.Is.
const MaxDocBytes = 16 << 20

// ErrDocTooLarge classes a spec document rejected for exceeding
// MaxDocBytes.
var ErrDocTooLarge = errors.New("spec: document exceeds size limit")

// bodies recycles the buffers readDoc reads input into. A decoded spec
// shares no memory with the bytes it came from, so a buffer is free
// again once its document is decoded; buffers over maxPooledBody are
// left to the garbage collector.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readDoc reads at most MaxDocBytes+1 bytes from r and hands them to
// parseDoc.
func readDoc(r io.Reader, decode func(*decoder) error) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(r, MaxDocBytes+1)); err != nil {
		return fmt.Errorf("spec: decode: %w", err)
	}
	return parseDoc(buf.Bytes(), decode)
}

// parseDoc applies the size bound and decodes all of data as one
// document with decode.
func parseDoc(data []byte, decode func(*decoder) error) error {
	if len(data) > MaxDocBytes {
		return fmt.Errorf("%w (%d-byte limit)", ErrDocTooLarge, MaxDocBytes)
	}
	d := decoder{data: data}
	if err := decode(&d); err != nil {
		return fmt.Errorf("spec: decode: %w", err)
	}
	if d.ws() {
		return errors.New("spec: decode: trailing data after document (one document per input)")
	}
	return nil
}

// ReadJob decodes one job spec from r. Unknown fields are rejected —
// a typo in a knob name must fail loudly, not silently run the
// default — and so is anything but whitespace after the document: a
// concatenated or half-overwritten spec file must not silently run
// only its first value. Input is bounded at MaxDocBytes (a hostile
// payload cannot OOM the decoder). The document is not otherwise
// validated; Decode is where semantic validation happens.
//
// The decoder is a hand-written single pass over the input, but its
// contract is encoding/json's: it accepts exactly the documents a
// json.Decoder with DisallowUnknownFields (and a check for trailing
// data) accepts, and decodes them to identical values — case-
// insensitive keys, repeated keys, null and short or long arrays
// included. Strings with escapes or non-ASCII bytes, the embedded
// trace, the workload class and policy params are decoded by
// encoding/json itself, on their own raw value.
func ReadJob(r io.Reader) (Job, error) {
	var job Job
	if err := readDoc(r, func(d *decoder) error { return d.job(&job) }); err != nil {
		return Job{}, err
	}
	return job, nil
}

// ReadJobs decodes a JSON array of job specs from r — the sweep-batch
// wire form — under the same contract as ReadJob: unknown fields and
// trailing content rejected, input bounded at MaxDocBytes, values as
// encoding/json would decode them. An empty array decodes to an empty
// slice; semantic validation is per-job via Decode.
func ReadJobs(r io.Reader) ([]Job, error) {
	var jobs []Job
	if err := readDoc(r, func(d *decoder) error { return d.jobs(&jobs) }); err != nil {
		return nil, err
	}
	return jobs, nil
}

// ParseJobs is ReadJobs over a document already in memory, for a
// caller that needs the bytes themselves too. The specs share no
// memory with data.
func ParseJobs(data []byte) ([]Job, error) {
	var jobs []Job
	if err := parseDoc(data, func(d *decoder) error { return d.jobs(&jobs) }); err != nil {
		return nil, err
	}
	return jobs, nil
}

// jobs decodes a JSON array of job specs.
func (d *decoder) jobs(jobs *[]Job) error {
	return decodeSlice(d, jobs, nil, "[]spec.Job", (*decoder).job)
}

// WriteJob encodes a job spec (indented) to w. The output is readable
// back via ReadJob; it is not the canonical encoding (see Canonical),
// just a human-friendly rendering of the same document.
func WriteJob(w io.Writer, job Job) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(job)
}
