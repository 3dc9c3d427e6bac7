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

// Fig8Row is one graphics benchmark's outcome.
type Fig8Row struct {
	Name      string
	MemScaleR float64 // projected (§6)
	CoScaleR  float64 // projected (§6)
	SysScale  float64 // measured
	// AvgGfxBoost is the graphics-clock increase SysScale achieved.
	AvgGfxBoost float64
}

// Fig8Result reproduces Fig. 8: FPS improvement on the 3DMark suite
// (paper: SysScale +8.9/6.7/8.1%; MemScale-R/CoScale-R ≈ 1.3-1.8%,
// roughly equal to each other because the CPU already runs at its
// lowest frequency so CoScale cannot scale it further).
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 runs the three 3DMark workloads as one sweep, then the graphics
// scalability probes as a second batch, then the projections over each
// baseline and its measured scalability.
func Fig8(ctx context.Context) (Fig8Result, error) {
	var res Fig8Result
	high, low := vf.HighPoint(), vf.LowPoint()
	ws := workload.GraphicsSuite()

	rs, err := newSweep(policy.NewBaseline(), policy.NewSysScaleDefault()).
		Workloads(ws...).
		RunContext(ctx, Engine())
	if err != nil {
		return res, err
	}
	base, sys := rs.Col(0), rs.Col(1)
	baseCfgs := make([]soc.Config, len(ws))
	for i, w := range ws {
		baseCfgs[i] = configFor(w, policy.NewBaseline(), nil)
	}
	scal, err := scalabilities(ctx, baseCfgs, base, true)
	if err != nil {
		return res, err
	}

	perf := rs.PerfImprovement(0)
	for i, w := range ws {
		row := Fig8Row{Name: w.Name, SysScale: perf.Values[1][i]}
		if base[i].AvgGfxFreq > 0 {
			row.AvgGfxBoost = float64(sys[i].AvgGfxFreq)/float64(base[i].AvgGfxFreq) - 1
		}
		memSave := soc.MemScaleProjectedSavings(base[i], high, low)
		row.MemScaleR, err = soc.ProjectedPerfGain(base[i], scal[i], memSave, true)
		if err != nil {
			return res, err
		}
		// On graphics workloads the cores already run at Pn, so
		// CoScale degenerates to MemScale (§7.2): same savings.
		row.CoScaleR = row.MemScaleR
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r Fig8Result) String() string {
	tab := stats.NewTable("Fig. 8: 3DMark FPS improvement",
		"Benchmark", "MemScale-R", "CoScale-R", "SysScale", "GfxClock")
	for _, row := range r.Rows {
		tab.AddRow(row.Name, pct(row.MemScaleR), pct(row.CoScaleR), pct(row.SysScale),
			fmt.Sprintf("%+.1f%%", 100*row.AvgGfxBoost))
	}
	return tab.String() + "paper: SysScale +8.9/6.7/8.1%, prior work ~1.3-1.8%\n"
}
