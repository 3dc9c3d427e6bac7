package soc_test

import (
	"testing"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/workload"
)

// TestDerivedPointResidency pins where MemScale and CoScale book their
// time. Both target a derived point off the ladder (the low point's
// memory clocks with the top point's interconnect clock and voltages);
// its residency belongs to the low point, whose DDR bin it runs, not
// to the high point.
func TestDerivedPointResidency(t *testing.T) {
	w, err := workload.SPEC("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []soc.Policy{
		policy.NewMemScale(), policy.NewMemScaleRedist(),
		policy.NewCoScale(), policy.NewCoScaleRedist(),
	} {
		cfg := soc.DefaultConfig()
		cfg.Workload = w
		cfg.Policy = pol
		res, err := soc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Transitions == 0 {
			t.Fatalf("%s: no transition on %s; the test needs one", pol.Name(), w.Name)
		}
		if err := res.Check(1e-12); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if low := res.PointResidency[1]; low < 0.9 {
			t.Fatalf("%s: low-point residency %v after %d transitions, want the derived point's time booked there",
				pol.Name(), res.PointResidency, res.Transitions)
		}
	}
}
