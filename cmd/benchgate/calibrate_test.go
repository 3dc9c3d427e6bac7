package main

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"
)

// calibrateSink keeps BenchmarkCalibrate's result live, so the
// compiler cannot drop the work.
var calibrateSink float64

// BenchmarkCalibrate is the gate's machine-speed reference (CI passes
// -calibrate BenchmarkCalibrate). It runs only standard-library code —
// a sort of 4096 pseudo-random integers, a SHA-256 of their bytes and
// a chain of dependent float divisions — so no change to the
// repository can speed it up or slow it down: it measures the machine,
// not the code under test. Every operation does the same fixed work
// and allocates nothing.
func BenchmarkCalibrate(b *testing.B) {
	const n = 4096
	keys := make([]uint64, n)
	buf := make([]byte, 8*n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// xorshift64: the same sequence every operation.
		x := uint64(88172645463325252)
		for j := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[j] = x
		}
		slices.Sort(keys)
		for j, k := range keys {
			binary.LittleEndian.PutUint64(buf[8*j:], k)
		}
		sum := sha256.Sum256(buf)
		f := float64(sum[0]) + 1
		for j := 0; j < 8*n; j++ {
			f = f/1.0000001 + 1
		}
		calibrateSink = f
	}
}
