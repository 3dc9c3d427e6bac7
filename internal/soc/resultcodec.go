package soc

import (
	"encoding/binary"
	"fmt"
	"math"

	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
)

// Result binary codec: the deterministic, exact encoding the on-disk
// result tier (internal/diskcache) checksums and stores. Every float64
// is written as its IEEE-754 bit pattern, so a decoded Result is
// bit-identical to the encoded one — including negative zero, and NaN
// payloads should one ever appear. Strings are length-prefixed raw
// bytes; fixed-size arrays carry their length so a build whose rail or
// counter topology differs rejects the entry (a decode error, which
// the disk tier treats as a miss) instead of misinterpreting it.
//
// The layout is versioned by the disk tier's entry header, not here:
// any change to this encoding MUST bump diskcache's entry version so
// old entries read as misses rather than as garbage.

// nilSlice is the count sentinel distinguishing a nil slice from an
// empty one, preserving Result equality across a round trip.
const nilSlice = ^uint32(0)

// AppendResult appends the deterministic binary encoding of r to b and
// returns the extended slice. Encoding is total: every Result value
// encodes.
func AppendResult(b []byte, r Result) []byte {
	b = appendResultString(b, r.Workload)
	b = appendResultString(b, r.Policy)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Duration))
	b = appendResultFloat(b, r.Score)
	b = appendResultFloat(b, r.ActiveScore)
	if r.PerfMet {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendResultFloat(b, float64(r.AvgPower))
	b = appendResultFloat(b, float64(r.Energy))
	b = appendResultFloat(b, r.EDP)
	b = binary.LittleEndian.AppendUint32(b, uint32(vf.NumRails))
	for _, w := range r.RailAvg {
		b = appendResultFloat(b, float64(w))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Transitions))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.TransitionTime))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.MaxTransition))
	b = appendResultFloats(b, r.PointResidency)
	b = appendResultFloat(b, float64(r.AvgCoreFreq))
	b = appendResultFloat(b, float64(r.AvgGfxFreq))
	b = binary.LittleEndian.AppendUint32(b, uint32(perfcounters.NumCounters))
	for _, v := range r.CounterAvg {
		b = appendResultFloat(b, v)
	}
	return b
}

// DecodeResult decodes one AppendResult encoding. It fails on any
// truncation, length mismatch, topology mismatch (rail/counter count
// differs from this build), or trailing bytes — a malformed input
// never yields a partially-filled Result.
func DecodeResult(b []byte) (Result, error) {
	d := resultDecoder{buf: b}
	var r Result
	r.Workload = d.string()
	r.Policy = d.string()
	r.Duration = sim.Time(d.u64())
	r.Score = d.float()
	r.ActiveScore = d.float()
	r.PerfMet = d.bool()
	r.AvgPower = power.Watt(d.float())
	r.Energy = power.Joule(d.float())
	r.EDP = d.float()
	if n := d.u32(); d.err == nil && n != uint32(vf.NumRails) {
		return Result{}, fmt.Errorf("soc: result codec: %d rails, this build has %d", n, vf.NumRails)
	}
	for i := range r.RailAvg {
		r.RailAvg[i] = power.Watt(d.float())
	}
	r.Transitions = int(d.u64())
	r.TransitionTime = sim.Time(d.u64())
	r.MaxTransition = sim.Time(d.u64())
	r.PointResidency = d.floats()
	r.AvgCoreFreq = vf.Hz(d.float())
	r.AvgGfxFreq = vf.Hz(d.float())
	if n := d.u32(); d.err == nil && n != uint32(perfcounters.NumCounters) {
		return Result{}, fmt.Errorf("soc: result codec: %d counters, this build has %d", n, perfcounters.NumCounters)
	}
	for i := range r.CounterAvg {
		r.CounterAvg[i] = d.float()
	}
	if d.err != nil {
		return Result{}, d.err
	}
	if d.off != len(d.buf) {
		return Result{}, fmt.Errorf("soc: result codec: %d trailing bytes", len(d.buf)-d.off)
	}
	return r, nil
}

func appendResultString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendResultFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendResultFloats(b []byte, fs []float64) []byte {
	if fs == nil {
		return binary.LittleEndian.AppendUint32(b, nilSlice)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(fs)))
	for _, f := range fs {
		b = appendResultFloat(b, f)
	}
	return b
}

// resultDecoder is an error-latching cursor over one encoding: after
// the first failure every read returns zero and the error survives.
type resultDecoder struct {
	buf []byte
	off int
	err error
}

func (d *resultDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("soc: result codec: truncated at byte %d", d.off)
	}
}

func (d *resultDecoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *resultDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *resultDecoder) float() float64 { return math.Float64frombits(d.u64()) }

func (d *resultDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off+1 > len(d.buf) {
		d.fail()
		return false
	}
	v := d.buf[d.off]
	d.off++
	if v > 1 {
		d.err = fmt.Errorf("soc: result codec: bad bool byte %d at %d", v, d.off-1)
		return false
	}
	return v == 1
}

func (d *resultDecoder) string() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if int(n) > len(d.buf)-d.off {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *resultDecoder) floats() []float64 {
	n := d.u32()
	if d.err != nil || n == nilSlice {
		return nil
	}
	if int(n) > (len(d.buf)-d.off)/8 {
		d.fail()
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = d.float()
	}
	return fs
}
