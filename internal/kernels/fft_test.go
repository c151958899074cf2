package kernels

import (
	"math"
	"testing"

	"ftb/internal/linalg"
	"ftb/internal/trace"
)

func newTestFFT(t *testing.T, n1, n2 int) *FFT {
	t.Helper()
	k, err := NewFFT(FFTConfig{N1: n1, N2: n2, Seed: 3, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, cfg := range []struct{ n1, n2 int }{
		{2, 2}, {4, 4}, {4, 8}, {8, 4}, {8, 8}, {16, 8},
	} {
		k := newTestFFT(t, cfg.n1, cfg.n2)
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		want := linalg.DFT(k.input)
		n := cfg.n1 * cfg.n2
		var maxd float64
		for i := 0; i < 2*n; i++ {
			d := math.Abs(g.Output[i] - want[i]/float64(n)) // kernel computes DFT/N
			if d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-9*float64(n) {
			t.Errorf("%dx%d: six-step FFT differs from DFT by %g", cfg.n1, cfg.n2, maxd)
		}
	}
}

func TestFFTPhaseLayout(t *testing.T) {
	k := newTestFFT(t, 4, 8)
	ph := k.Phases()
	wantNames := []string{"transpose-1", "fft-rows-1", "twiddle", "transpose-2", "fft-rows-2", "transpose-3"}
	if len(ph) != len(wantNames) {
		t.Fatalf("phases = %d, want %d", len(ph), len(wantNames))
	}
	for i, p := range ph {
		if p.Name != wantNames[i] {
			t.Errorf("phase[%d] = %q, want %q", i, p.Name, wantNames[i])
		}
	}
	if got, want := trace.CountSites(k), ph[len(ph)-1].End; got != want {
		t.Errorf("sites = %d, layout says %d", got, want)
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	for _, cfg := range []struct{ n1, n2 int }{{3, 4}, {4, 6}, {0, 4}} {
		if _, err := NewFFT(FFTConfig{N1: cfg.n1, N2: cfg.n2, Tolerance: 1}); err == nil {
			t.Errorf("%dx%d accepted", cfg.n1, cfg.n2)
		}
	}
	if _, err := NewFFT(FFTConfig{N1: 4, N2: 4, Tolerance: 0}); err == nil {
		t.Error("zero tolerance accepted")
	}
}

func TestFFTTransposeRegionLowPropagation(t *testing.T) {
	// An error injected into the *final* transpose affects exactly the one
	// output component it lands on (pure data movement, no propagation).
	k := newTestFFT(t, 4, 4)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	last := k.Phases()[len(k.Phases())-1]
	site := last.Start + 5
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: 40}) // mid-magnitude mantissa flip
	if res.Crashed {
		t.Fatal("unexpected crash")
	}
	changed := 0
	for i := range res.Output {
		if res.Output[i] != g.Output[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Errorf("final-transpose flip changed %d output components, want exactly 1", changed)
	}
}

func TestFFTButterflyPropagates(t *testing.T) {
	// An error injected into the first row-FFT region reaches many output
	// components: the butterfly network spreads it across the spectrum.
	k := newTestFFT(t, 8, 8)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	ph := k.Phases()[1] // fft-rows-1
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: ph.Start + 2, Bit: 55}) // large-ish exponent-area flip
	if res.Crashed {
		t.Skip("flip crashed; pick of bit landed on exponent edge")
	}
	changed := 0
	for i := range res.Output {
		if res.Output[i] != g.Output[i] {
			changed++
		}
	}
	if changed < 8 {
		t.Errorf("butterfly-region flip changed only %d components", changed)
	}
}
