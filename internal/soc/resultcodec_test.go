package soc

import (
	"math"
	"reflect"
	"testing"

	"sysscale/internal/perfcounters"
	"sysscale/internal/power"
	"sysscale/internal/sim"
	"sysscale/internal/vf"
	"sysscale/internal/workload/gen"
)

// codecResult builds a Result exercising every field, including
// awkward float values the codec must carry bit-exactly.
func codecResult() Result {
	r := Result{
		Workload:       "470.lbm",
		Policy:         "sysscale",
		Duration:       4 * sim.Second,
		Score:          0.9731,
		ActiveScore:    1.204,
		PerfMet:        true,
		AvgPower:       4.125,
		Energy:         16.5,
		EDP:            math.Copysign(0, -1), // negative zero survives
		Transitions:    42,
		TransitionTime: 17 * sim.Millisecond,
		MaxTransition:  3 * sim.Millisecond,
		PointResidency: []float64{0.75, 0.25},
		AvgCoreFreq:    1.8e9,
		AvgGfxFreq:     0.3e9,
	}
	for i := range r.RailAvg {
		r.RailAvg[i] = power.Watt(0.1 * float64(i+1))
	}
	for i := range r.CounterAvg {
		r.CounterAvg[i] = 1e-3 * float64(i) / 3.0
	}
	return r
}

func TestResultCodecRoundTrip(t *testing.T) {
	want := codecResult()
	got, err := DecodeResult(AppendResult(nil, want))
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}

	// Nil and empty (but non-nil) slices round-trip distinctly from
	// each other and from populated ones — cache identity must not
	// invent or drop slices.
	want.PointResidency = nil
	got, err = DecodeResult(AppendResult(nil, want))
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if got.PointResidency != nil {
		t.Errorf("nil PointResidency decoded as %#v", got.PointResidency)
	}
	want.PointResidency = []float64{}
	got, err = DecodeResult(AppendResult(nil, want))
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if got.PointResidency == nil || len(got.PointResidency) != 0 {
		t.Errorf("empty PointResidency decoded as %#v", got.PointResidency)
	}
}

func TestResultCodecExactBits(t *testing.T) {
	r := codecResult()
	r.Score = math.NaN()
	r.EDP = math.Inf(1)
	r.ActiveScore = math.Nextafter(1, 2) // 1 + one ulp
	got, err := DecodeResult(AppendResult(nil, r))
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if math.Float64bits(got.Score) != math.Float64bits(r.Score) {
		t.Errorf("NaN bits changed: %x != %x", math.Float64bits(got.Score), math.Float64bits(r.Score))
	}
	if !math.IsInf(got.EDP, 1) {
		t.Errorf("+Inf EDP decoded as %v", got.EDP)
	}
	if got.ActiveScore != r.ActiveScore {
		t.Errorf("one-ulp value changed: %v != %v", got.ActiveScore, r.ActiveScore)
	}
}

func TestResultCodecRejectsMalformed(t *testing.T) {
	enc := AppendResult(nil, codecResult())

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, 3, len(enc) / 2, len(enc) - 1} {
			if _, err := DecodeResult(enc[:n]); err == nil {
				t.Errorf("decoded a %d-byte prefix of a %d-byte encoding", n, len(enc))
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		if _, err := DecodeResult(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Errorf("decoded an encoding with a trailing byte")
		}
	})
	t.Run("rail count mismatch", func(t *testing.T) {
		// The rail count sits right after two strings, three u64/floats
		// ×2... locate it by re-encoding with a poisoned count instead:
		// flip the count field by encoding then patching the bytes at
		// its known offset.
		off := 4 + len("470.lbm") + 4 + len("sysscale") + 8 + 8 + 8 + 1 + 8 + 8 + 8
		bad := append([]byte(nil), enc...)
		bad[off]++ // rails+1
		if _, err := DecodeResult(bad); err == nil {
			t.Errorf("decoded an entry with %d rails against a %d-rail build", vf.NumRails+1, vf.NumRails)
		}
	})
	t.Run("huge slice count", func(t *testing.T) {
		// A corrupted count must not cause a giant allocation or a
		// partial decode; nilSlice-1 elements can never fit.
		bad := append([]byte(nil), enc...)
		// PointResidency count offset: after rails array.
		off := 4 + len("470.lbm") + 4 + len("sysscale") + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 4 + 8*vf.NumRails + 8 + 8 + 8
		bad[off], bad[off+1], bad[off+2], bad[off+3] = 0xfe, 0xff, 0xff, 0xff
		if _, err := DecodeResult(bad); err == nil {
			t.Errorf("decoded an entry with an impossible slice count")
		}
	})
}

// TestResultCodecCoversResult pins the codec to the Result struct
// shape: adding a field to Result without teaching the codec about it
// would silently drop it from the disk tier. NumField is a tripwire —
// update the codec, then this count.
func TestResultCodecCoversResult(t *testing.T) {
	const wantFields = 17
	if n := reflect.TypeOf(Result{}).NumField(); n != wantFields {
		t.Errorf("Result has %d fields, codec written for %d: update AppendResult/DecodeResult and this test", n, wantFields)
	}
	_ = perfcounters.NumCounters // codec also depends on the counter topology
}

// BenchmarkResultCodec times one disk-tier round trip of a result's
// payload, AppendResult then DecodeResult, on a 2 s generated-workload
// result.
func BenchmarkResultCodec(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workload = gen.Generate(gen.DefaultConfig(1))
	cfg.Policy = highPinBench()
	cfg.Duration = 2 * sim.Second
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendResult(buf[:0], res)
		if _, err := DecodeResult(buf); err != nil {
			b.Fatal(err)
		}
	}
}
