package kernels

import (
	"math"
	"testing"

	"ftb/internal/linalg"
	"ftb/internal/trace"
)

func TestCholeskyFactorCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12} {
		k, err := NewCholesky(CholeskyConfig{N: n, Seed: 3, Tolerance: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		// L·Lᵀ must reproduce the SPD input.
		l := &linalg.Dense{Rows: n, Cols: n, Data: g.Output}
		var maxd float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < n; kk++ {
					s += l.At(i, kk) * l.At(j, kk)
				}
				d := math.Abs(s - k.orig[i*n+j])
				if d > maxd {
					maxd = d
				}
			}
		}
		if maxd > 1e-11 {
			t.Errorf("n=%d: |L·Lᵀ − A|∞ = %g", n, maxd)
		}
	}
}

func TestCholeskySiteCount(t *testing.T) {
	k, err := NewCholesky(CholeskyConfig{N: 7, Seed: 3, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 7 * 8 / 2
	if got := trace.CountSites(k); got != want {
		t.Errorf("sites = %d, want %d", got, want)
	}
}

func TestCholeskyDiagonalCorruptionCrashes(t *testing.T) {
	// Sign-flipping the first diagonal factor (a positive sqrt result)
	// makes every subsequent column's sqrt argument suspect; at minimum
	// the immediate divisions flip sign, and large exponent flips on the
	// diagonal drive later sqrt arguments negative -> NaN -> crash.
	k, err := NewCholesky(CholeskyConfig{N: 10, Seed: 5, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	var ctx trace.Ctx
	crashes := 0
	for bit := uint(52); bit < 63; bit++ {
		res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: 0, Bit: bit})
		if res.Crashed {
			crashes++
		} else if linalg.LInfDist(res.Output, g.Output) == 0 {
			t.Errorf("bit %d: diagonal corruption left output untouched", bit)
		}
	}
	if crashes == 0 {
		t.Error("no exponent flip on the first pivot crashed; expected NaN from sqrt")
	}
}

func TestCholeskyCrashRatioExceedsLU(t *testing.T) {
	// The sqrt on every column makes Cholesky markedly more crash-prone
	// than LU at the same scale.
	chol, err := New("cholesky", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := New("lu", SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	crashRatio := func(k Kernel) float64 {
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		var ctx trace.Ctx
		crash, total := 0, 0
		for site := 0; site < g.Sites(); site += 3 {
			for bit := uint(50); bit < 64; bit++ {
				res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: bit})
				total++
				if res.Crashed {
					crash++
				}
			}
		}
		return float64(crash) / float64(total)
	}
	cr, lr := crashRatio(chol), crashRatio(lu)
	if cr <= lr {
		t.Errorf("cholesky crash ratio %.3f not above lu %.3f", cr, lr)
	}
}

func TestCholeskyValidation(t *testing.T) {
	if _, err := NewCholesky(CholeskyConfig{N: 0, Tolerance: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewCholesky(CholeskyConfig{N: 4, Tolerance: 0}); err == nil {
		t.Error("zero tolerance accepted")
	}
}

func TestHeat3DConservesUniformField(t *testing.T) {
	k, err := NewHeat3D(Heat3DConfig{NX: 4, NY: 4, NZ: 4, Steps: 3, Alpha: 1.0 / 8, Seed: 1, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range k.init {
		k.init[i] = 2.5
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	for i := 0; i < n; i++ {
		if math.Abs(g.Output[i]-2.5) > 1e-12 {
			t.Fatalf("field[%d] = %g, want 2.5 (uniform field is a fixed point)", i, g.Output[i])
		}
	}
	// Energy per step = 2.5 × interior count.
	wantE := 2.5 * 8
	for s := 0; s < 3; s++ {
		if math.Abs(g.Output[n+s]-wantE) > 1e-12 {
			t.Errorf("energy[%d] = %g, want %g", s, g.Output[n+s], wantE)
		}
	}
}

func TestHeat3DDiffusionSmooths(t *testing.T) {
	// The max-min spread of the interior must shrink under diffusion.
	k, err := NewHeat3D(Heat3DConfig{NX: 6, NY: 6, NZ: 6, Steps: 10, Alpha: 1.0 / 8, Seed: 2, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(field []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		id := func(x, y, z int) int { return (z*6+y)*6 + x }
		for z := 1; z < 5; z++ {
			for y := 1; y < 5; y++ {
				for x := 1; x < 5; x++ {
					v := field[id(x, y, z)]
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
			}
		}
		return hi - lo
	}
	if got, init := spread(g.Output[:216]), spread(k.init); got >= init {
		t.Errorf("interior spread %g did not shrink from %g", got, init)
	}
}

func TestHeat3DEnergyReductionSensitive(t *testing.T) {
	// A flip in any interior update of step s perturbs the energy scalar
	// of step s (the reduction sees every interior store).
	k, err := NewHeat3D(Heat3DConfig{NX: 4, NY: 4, NZ: 4, Steps: 2, Alpha: 1.0 / 8, Seed: 3, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: 3, Bit: 40}) // step-0 interior store
	if res.Crashed {
		t.Fatal("unexpected crash")
	}
	n := 64
	if res.Output[n] == g.Output[n] {
		t.Error("step-0 energy unchanged by step-0 interior corruption")
	}
}

func TestHeat3DValidation(t *testing.T) {
	bad := []Heat3DConfig{
		{NX: 2, NY: 4, NZ: 4, Steps: 1, Alpha: 0.1, Tolerance: 1},
		{NX: 4, NY: 4, NZ: 4, Steps: 0, Alpha: 0.1, Tolerance: 1},
		{NX: 4, NY: 4, NZ: 4, Steps: 1, Alpha: 0.3, Tolerance: 1}, // unstable
		{NX: 4, NY: 4, NZ: 4, Steps: 1, Alpha: 0.1, Tolerance: 0},
	}
	for i, cfg := range bad {
		if _, err := NewHeat3D(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
