// Package ioengine models the IO-domain engines and controllers: the
// display controller, the camera image-signal-processor (ISP), and
// their control-and-status registers (CSRs). The CSRs expose the
// *static configuration* — number of active panels, resolution, refresh
// rate, camera streams — from which SysScale's firmware estimates the
// static bandwidth/latency demand (§4.2: "the bandwidth demand of a
// given peripheral configuration is known and is deterministic").
package ioengine

import (
	"fmt"

	"sysscale/internal/power"
	"sysscale/internal/vf"
)

// Resolution identifies a display panel class.
type Resolution int

// Panel classes evaluated in Fig. 3(b).
const (
	DisplayOff Resolution = iota
	DisplayHD             // 1366x768-class laptop panel
	DisplayFHD
	DisplayQHD
	Display4K // highest supported quality on the platform
)

func (r Resolution) String() string {
	switch r {
	case DisplayOff:
		return "off"
	case DisplayHD:
		return "HD"
	case DisplayFHD:
		return "FHD"
	case DisplayQHD:
		return "QHD"
	case Display4K:
		return "4K"
	default:
		return fmt.Sprintf("Resolution(%d)", int(r))
	}
}

// bandwidthFrac returns the fraction of the dual-channel LPDDR3-1600
// peak (25.6GB/s) one panel of this class consumes, calibrated to
// Fig. 3(b): an HD panel needs ~17% of peak and a single 4K panel ~70%.
func (r Resolution) bandwidthFrac(refreshHz float64) float64 {
	var at60 float64
	switch r {
	case DisplayHD:
		at60 = 0.17
	case DisplayFHD:
		at60 = 0.26
	case DisplayQHD:
		at60 = 0.44
	case Display4K:
		at60 = 0.70
	default:
		return 0
	}
	return at60 * refreshHz / 60
}

// referencePeak is the bandwidth against which panel fractions are
// defined: dual-channel LPDDR3 at DDR 1.6GHz (§3).
const referencePeak = 25.6e9

// Panel is one display head's configuration.
type Panel struct {
	Res       Resolution
	RefreshHz float64
}

// Bandwidth returns the panel's isochronous bandwidth demand (bytes/s).
func (p Panel) Bandwidth() float64 {
	if p.Res == DisplayOff {
		return 0
	}
	hz := p.RefreshHz
	if hz <= 0 {
		hz = 60
	}
	return p.Res.bandwidthFrac(hz) * referencePeak
}

// MaxPanels is the number of display heads the platform exposes
// (modern laptops support up to three panels, §4.2).
const MaxPanels = 3

// CameraMode is the ISP's active streaming mode.
type CameraMode int

// ISP modes.
const (
	CameraOff CameraMode = iota
	Camera720p
	Camera1080p
	Camera4K
)

func (m CameraMode) String() string {
	switch m {
	case CameraOff:
		return "off"
	case Camera720p:
		return "720p"
	case Camera1080p:
		return "1080p"
	case Camera4K:
		return "4K"
	default:
		return fmt.Sprintf("CameraMode(%d)", int(m))
	}
}

// Bandwidth returns the ISP memory bandwidth demand (bytes/s) for the
// mode: sensor write-out plus processing read/write passes.
func (m CameraMode) Bandwidth() float64 {
	switch m {
	case Camera720p:
		return 0.035 * referencePeak
	case Camera1080p:
		return 0.06 * referencePeak
	case Camera4K:
		return 0.16 * referencePeak
	default:
		return 0
	}
}

// CSR is the IO domain's control-and-status register file: the
// software-visible configuration the PMU firmware reads for static
// demand estimation. Configuration changes happen at OS/driver
// time-scale (tens of milliseconds, §4.2).
type CSR struct {
	Panels [MaxPanels]Panel
	Camera CameraMode
}

// ActivePanels returns how many display heads are driving a panel.
func (c CSR) ActivePanels() int {
	n := 0
	for _, p := range c.Panels {
		if p.Res != DisplayOff {
			n++
		}
	}
	return n
}

// DisplayBandwidth returns the aggregate display demand (bytes/s).
func (c CSR) DisplayBandwidth() float64 {
	var sum float64
	for _, p := range c.Panels {
		sum += p.Bandwidth()
	}
	return sum
}

// StaticBandwidth returns the total static (configuration-determined)
// IO memory-bandwidth demand: displays plus camera.
func (c CSR) StaticBandwidth() float64 {
	return c.DisplayBandwidth() + c.Camera.Bandwidth()
}

// Engines models the IO controllers' power behaviour. They sit on the
// V_SA rail with per-engine clocks tied to the interconnect clock on
// this platform.
type Engines struct {
	csr CSR
	// static is csr.StaticBandwidth(), cached by Configure: the register
	// file only changes there, and Power reads it on every call.
	static float64

	cdyn      float64
	leakAtNom float64
	nomVolt   vf.Volt
}

// NewEngines constructs the IO engine block with default coefficients.
func NewEngines() *Engines {
	return &Engines{
		cdyn:      0.15e-9,
		leakAtNom: 0.030,
		nomVolt:   vf.NominalVSA,
	}
}

// CSR returns the current register file.
func (e *Engines) CSR() CSR { return e.csr }

// Configure writes the register file (models an OS/driver update).
func (e *Engines) Configure(csr CSR) {
	e.csr = csr
	e.static = csr.StaticBandwidth()
}

// StaticBandwidth returns the configured register file's static
// bandwidth demand (CSR.StaticBandwidth, computed once per Configure).
func (e *Engines) StaticBandwidth() float64 { return e.static }

// Power returns the IO engines' draw at the given rail voltage and
// interconnect clock, with activity proportional to the static demand
// they are streaming.
func (e *Engines) Power(v vf.Volt, clock vf.Hz) power.Watt {
	activity := e.static / referencePeak
	if activity > 1 {
		activity = 1
	}
	activity = 0.10 + 0.90*activity
	dyn := power.Dynamic(e.cdyn, v, clock, activity)
	leak := power.Leakage(e.leakAtNom, v, e.nomVolt)
	return dyn + leak
}

// SingleHDLaptop returns the CSR of the paper's battery-life setup:
// one HD laptop panel at 60Hz, camera off (§7.3).
func SingleHDLaptop() CSR {
	return CSR{Panels: [MaxPanels]Panel{{Res: DisplayHD, RefreshHz: 60}}}
}
