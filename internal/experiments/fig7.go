package experiments

import (
	"context"
	"fmt"

	"sysscale/internal/policy"
	"sysscale/internal/soc"
	"sysscale/internal/stats"
	"sysscale/internal/vf"
	"sysscale/internal/workload"
)

// Fig7Row is one SPEC benchmark's outcome.
type Fig7Row struct {
	Name string
	// Projected comparators, following the paper's §6 methodology
	// (power-savings estimate → budget → frequency → scalability).
	MemScaleR float64
	CoScaleR  float64
	// SysScale is the measured (simulated closed-loop) improvement.
	SysScale float64
	// SimMemScaleR and SimCoScaleR are the honest closed-loop policy
	// simulations, which additionally expose the penalties (detuned
	// registers, shared rails) the projection ignores.
	SimMemScaleR float64
	SimCoScaleR  float64
	// LowResidency is SysScale's time share below the top point.
	LowResidency float64
}

// Fig7Result reproduces Fig. 7: per-benchmark and average performance
// improvement of MemScale-Redist, CoScale-Redist and SysScale on SPEC
// CPU2006 (paper averages: 1.7%, 3.8%, 9.2%; SysScale up to 16%).
type Fig7Result struct {
	Rows []Fig7Row
	// Averages across the suite.
	AvgMemScaleR, AvgCoScaleR, AvgSysScale float64
	MaxSysScale                            float64
}

// Fig7 runs the full SPEC CPU2006 suite: the four closed-loop policies
// of every benchmark as one sweep, then the §6 scalability probes as a
// second batch (they depend on the baseline results), then the
// projections, which are arithmetic over each baseline and its
// measured scalability.
func Fig7(ctx context.Context) (Fig7Result, error) {
	var res Fig7Result
	high, low := vf.HighPoint(), vf.LowPoint()
	ws := workload.SPECSuite()

	m, err := newSweep(
		policy.NewBaseline(),
		policy.NewSysScaleDefault(),
		policy.NewMemScaleRedist(),
		policy.NewCoScaleRedist(),
	).Workloads(ws...).RunContext(ctx, Engine())
	if err != nil {
		return res, err
	}

	baseCfgs := make([]soc.Config, len(ws))
	for i, w := range ws {
		baseCfgs[i] = configFor(w, policy.NewBaseline(), nil)
	}
	scal, err := scalabilities(ctx, baseCfgs, m.Col(0), false)
	if err != nil {
		return res, err
	}

	for i, w := range ws {
		base, sys, simMem, simCo := m.Result(i, 0), m.Result(i, 1), m.Result(i, 2), m.Result(i, 3)
		row := Fig7Row{
			Name:         w.Name,
			SysScale:     soc.PerfImprovement(sys, base),
			LowResidency: 1 - sys.PointResidency[0],
			SimMemScaleR: soc.PerfImprovement(simMem, base),
			SimCoScaleR:  soc.PerfImprovement(simCo, base),
		}

		memSave := soc.MemScaleProjectedSavings(base, high, low)
		row.MemScaleR, err = soc.ProjectedPerfGain(base, scal[i], memSave, false)
		if err != nil {
			return res, err
		}
		coSave := soc.CoScaleProjectedSavings(base, high, low)
		row.CoScaleR, err = soc.ProjectedPerfGain(base, scal[i], coSave, false)
		if err != nil {
			return res, err
		}

		res.Rows = append(res.Rows, row)
		res.AvgMemScaleR += row.MemScaleR
		res.AvgCoScaleR += row.CoScaleR
		res.AvgSysScale += row.SysScale
		if row.SysScale > res.MaxSysScale {
			res.MaxSysScale = row.SysScale
		}
	}
	n := float64(len(res.Rows))
	res.AvgMemScaleR /= n
	res.AvgCoScaleR /= n
	res.AvgSysScale /= n
	return res, nil
}

func (r Fig7Result) String() string {
	tab := stats.NewTable("Fig. 7: SPEC CPU2006 performance improvement",
		"Benchmark", "MemScale-R", "CoScale-R", "SysScale", "LowResid", "sim MemScale-R", "sim CoScale-R")
	for _, row := range r.Rows {
		tab.AddRow(row.Name, pct(row.MemScaleR), pct(row.CoScaleR), pct(row.SysScale),
			fmt.Sprintf("%.0f%%", 100*row.LowResidency), pct(row.SimMemScaleR), pct(row.SimCoScaleR))
	}
	tab.AddRow("AVERAGE", pct(r.AvgMemScaleR), pct(r.AvgCoScaleR), pct(r.AvgSysScale), "",
		"", "")
	chart := stats.NewBarChart("SysScale improvement per benchmark", "%", 40)
	for _, row := range r.Rows {
		chart.Add(row.Name, 100*row.SysScale)
	}
	return tab.String() + chart.String() +
		fmt.Sprintf("paper: MemScale-R 1.7%%, CoScale-R 3.8%%, SysScale 9.2%% avg / 16%% max (measured max %s)\n", pct(r.MaxSysScale))
}
