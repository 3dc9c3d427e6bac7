package loadgen

import (
	"reflect"
	"testing"

	"sysscale/internal/spec"
)

// seq returns the samples 1..n in the given order.
func seq(n int, reverse bool) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
		if reverse {
			s[i] = float64(n - i)
		}
	}
	return s
}

// TestQuantiles pins the nearest-rank quantiles: rank ceil(p·n), so
// P99 of 10 samples is the maximum, not the 9th sample.
func TestQuantiles(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []float64
		want Quantiles
	}{
		{"empty", nil, Quantiles{}},
		{"one", []float64{7}, Quantiles{Mean: 7, P50: 7, P90: 7, P99: 7, Max: 7}},
		{"ten", seq(10, false), Quantiles{Mean: 5.5, P50: 5, P90: 9, P99: 10, Max: 10}},
		{"hundred", seq(100, false), Quantiles{Mean: 50.5, P50: 50, P90: 90, P99: 99, Max: 100}},
		{"unsorted", []float64{30, 10, 50, 20, 40}, Quantiles{Mean: 30, P50: 30, P90: 50, P99: 50, Max: 50}},
		{"reversed", seq(10, true), Quantiles{Mean: 5.5, P50: 5, P90: 9, P99: 10, Max: 10}},
		{"ties", []float64{2, 2, 1, 2}, Quantiles{Mean: 1.75, P50: 2, P90: 2, P99: 2, Max: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := append([]float64(nil), c.in...)
			if got := quantiles(in); got != c.want {
				t.Errorf("quantiles(%v) = %+v, want %+v", c.in, got, c.want)
			}
			if !reflect.DeepEqual(in, c.in) {
				t.Errorf("quantiles reordered its input: %v", in)
			}
		})
	}
}

// TestChunks pins how a corpus partitions into sweep bodies: chunk
// bounds, the short last chunk, wrap-around, and the whole-corpus
// cases.
func TestChunks(t *testing.T) {
	type span struct{ start, end int }
	for _, c := range []struct {
		name      string
		specs     int
		perSweep  int
		numChunks int
		chunks    []span // Chunk(0), Chunk(1), ...
	}{
		{"whole corpus", 10, 0, 1, []span{{0, 10}, {0, 10}}},
		{"negative size", 10, -3, 1, []span{{0, 10}}},
		{"size equals corpus", 10, 10, 1, []span{{0, 10}, {0, 10}}},
		{"size over corpus", 10, 25, 1, []span{{0, 10}}},
		{"even split", 10, 5, 2, []span{{0, 5}, {5, 10}, {0, 5}}},
		{"short last chunk", 10, 3, 4, []span{{0, 3}, {3, 6}, {6, 9}, {9, 10}, {0, 3}}},
		{"one per chunk", 3, 1, 3, []span{{0, 1}, {1, 2}, {2, 3}, {0, 1}}},
		{"empty corpus", 0, 4, 1, []span{{0, 0}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Specs: make([]spec.Job, c.specs), JobsPerSweep: c.perSweep}
			if got := cfg.NumChunks(); got != c.numChunks {
				t.Fatalf("NumChunks() = %d, want %d", got, c.numChunks)
			}
			for i, want := range c.chunks {
				if start, end := cfg.Chunk(i); (span{start, end}) != want {
					t.Errorf("Chunk(%d) = [%d, %d), want [%d, %d)", i, start, end, want.start, want.end)
				}
			}
			// The chunks of one cycle cover the corpus exactly once.
			next := 0
			for i := range cfg.NumChunks() {
				start, end := cfg.Chunk(i)
				if start != next || end < start || end > c.specs {
					t.Fatalf("Chunk(%d) = [%d, %d) does not continue the partition at %d", i, start, end, next)
				}
				next = end
			}
			if next != c.specs {
				t.Errorf("chunks cover [0, %d), corpus has %d specs", next, c.specs)
			}
		})
	}
}
