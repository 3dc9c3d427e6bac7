package engine

import (
	"encoding/json"
	"sync"
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/sim"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// TestStatsJSONStable pins the machine-readable form of the stats
// snapshot: snake_case keys, every counter present. The sweep
// service's /v1/stats endpoint and the CLIs' -stats-json lines are
// parsed by scripts (the CI smoke greps exact fields), so a renamed or
// dropped key is a wire-format break, not a refactor.
func TestStatsJSONStable(t *testing.T) {
	b, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"entries", "hits", "misses", "evictions",
		"span_hits", "span_misses", "span_dropped",
		"disk_hits", "disk_misses", "disk_errors", "disk_bytes", "disk_degraded",
		"retries", "panics",
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("stats JSON missing key %q", k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("stats JSON has %d keys, want %d: %s", len(m), len(want), b)
	}
}

// TestStatsSnapshotRaceClean hammers CacheStats (and its JSON
// rendering) while batches mutate every counter group — result LRU,
// retries — under -race. CacheStats is the documented
// race-safe snapshot accessor for concurrent servers; this is the test
// that keeps it honest.
func TestStatsSnapshotRaceClean(t *testing.T) {
	e := New(WithParallelism(4))
	cfg := soc.DefaultConfig()
	cfg.Policy = policy.NewSysScaleDefault()
	cfg.Duration = 50 * sim.Millisecond

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := e.CacheStats()
			if _, err := json.Marshal(st); err != nil {
				t.Errorf("marshal stats: %v", err)
				return
			}
		}
	}()

	suite := workload.SPECSuite()
	for round := 0; round < 3; round++ {
		var jobs []Job
		for _, w := range suite {
			c := cfg
			c.Workload = w
			jobs = append(jobs, Job{Config: c})
		}
		if _, err := e.RunBatch(jobs); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	st := e.CacheStats()
	if st.Misses == 0 {
		t.Fatal("batches ran but Misses == 0; snapshot not observing the engine")
	}
}
