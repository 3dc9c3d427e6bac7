package ioengine

import (
	"math"
	"testing"
)

func TestPanelBandwidthAnchors(t *testing.T) {
	// Fig. 3(b): HD ~17% of 25.6GB/s peak, one 4K panel ~70%.
	hd := Panel{Res: DisplayHD, RefreshHz: 60}.Bandwidth()
	if frac := hd / 25.6e9; math.Abs(frac-0.17) > 0.005 {
		t.Fatalf("HD fraction = %.3f, want 0.17", frac)
	}
	fourK := Panel{Res: Display4K, RefreshHz: 60}.Bandwidth()
	if frac := fourK / 25.6e9; math.Abs(frac-0.70) > 0.005 {
		t.Fatalf("4K fraction = %.3f, want 0.70", frac)
	}
}

func TestRefreshScaling(t *testing.T) {
	hd60 := Panel{Res: DisplayHD, RefreshHz: 60}.Bandwidth()
	hd120 := Panel{Res: DisplayHD, RefreshHz: 120}.Bandwidth()
	if math.Abs(hd120-2*hd60) > 1 {
		t.Fatal("refresh rate scaling broken")
	}
	// Zero refresh defaults to 60Hz.
	hdDefault := Panel{Res: DisplayHD}.Bandwidth()
	if hdDefault != hd60 {
		t.Fatal("default refresh not 60Hz")
	}
}

func TestThreePanelsTripleBandwidth(t *testing.T) {
	// §4.2: three identical panels demand nearly three times one.
	var csr CSR
	csr.Panels[0] = Panel{Res: DisplayHD, RefreshHz: 60}
	one := csr.DisplayBandwidth()
	csr.Panels[1] = csr.Panels[0]
	csr.Panels[2] = csr.Panels[0]
	if got := csr.DisplayBandwidth(); math.Abs(got-3*one) > 1 {
		t.Fatalf("3 panels = %v, want %v", got, 3*one)
	}
	if csr.ActivePanels() != 3 {
		t.Fatal("active panel count wrong")
	}
}

func TestOffPanel(t *testing.T) {
	if (Panel{Res: DisplayOff, RefreshHz: 60}).Bandwidth() != 0 {
		t.Fatal("off panel demands bandwidth")
	}
	var csr CSR
	if csr.ActivePanels() != 0 || csr.StaticBandwidth() != 0 {
		t.Fatal("empty CSR demands bandwidth")
	}
}

func TestCameraModes(t *testing.T) {
	prev := 0.0
	for _, m := range []CameraMode{Camera720p, Camera1080p, Camera4K} {
		bw := m.Bandwidth()
		if bw <= prev {
			t.Fatalf("camera bandwidth not increasing at %v", m)
		}
		prev = bw
	}
	if CameraOff.Bandwidth() != 0 {
		t.Fatal("camera off demands bandwidth")
	}
}

func TestStaticBandwidthSumsDisplayAndCamera(t *testing.T) {
	csr := SingleHDLaptop()
	csr.Camera = Camera1080p
	want := csr.DisplayBandwidth() + Camera1080p.Bandwidth()
	if got := csr.StaticBandwidth(); math.Abs(got-want) > 1 {
		t.Fatalf("static = %v, want %v", got, want)
	}
}

func TestEnginesPower(t *testing.T) {
	e := NewEngines()
	e.Configure(SingleHDLaptop())
	idleCfg := NewEngines()
	pBusy := e.Power(0.95, 0.8e9)
	pIdle := idleCfg.Power(0.95, 0.8e9)
	if pBusy <= pIdle {
		t.Fatal("streaming engines not above idle power")
	}
	pLow := e.Power(0.76, 0.4e9)
	if pLow >= pBusy {
		t.Fatal("lower rail/clock did not reduce engine power")
	}
	if e.CSR() != SingleHDLaptop() {
		t.Fatal("CSR accessor broken")
	}
}

func TestStrings(t *testing.T) {
	if DisplayHD.String() != "HD" || Display4K.String() != "4K" || DisplayOff.String() != "off" {
		t.Fatal("resolution strings wrong")
	}
	if Camera1080p.String() != "1080p" || CameraOff.String() != "off" {
		t.Fatal("camera strings wrong")
	}
}

// TestStaticBandwidthFollowsConfigure pins the cache Configure keeps:
// the engines' static bandwidth, and the power derived from it, track
// every rewrite of the register file.
func TestStaticBandwidthFollowsConfigure(t *testing.T) {
	e := NewEngines()
	if e.StaticBandwidth() != 0 {
		t.Fatalf("unconfigured engines report %g B/s", e.StaticBandwidth())
	}
	busy := CSR{Panels: [MaxPanels]Panel{{Res: Display4K, RefreshHz: 60}}, Camera: Camera1080p}
	for _, csr := range []CSR{SingleHDLaptop(), busy, {}, SingleHDLaptop()} {
		e.Configure(csr)
		if got, want := e.StaticBandwidth(), csr.StaticBandwidth(); got != want {
			t.Fatalf("%+v: cached static bandwidth %g, want %g", csr, got, want)
		}
		fresh := NewEngines()
		fresh.Configure(csr)
		if got, want := e.Power(0.9, 0.6e9), fresh.Power(0.9, 0.6e9); got != want {
			t.Fatalf("%+v: reconfigured engines draw %v, fresh ones %v", csr, got, want)
		}
	}
}
