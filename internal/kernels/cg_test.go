package kernels

import (
	"math"
	"testing"

	"ftb/internal/linalg"
	"ftb/internal/trace"
)

func newTestCG(t *testing.T) *CG {
	t.Helper()
	a := linalg.Poisson3D(3, 3, 3)
	b := linalg.NewVector(a.N)
	fillRandom(b, 1)
	k, err := NewCG(CGConfig{A: a, B: b, Iters: 30, Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCGSolvesSystem(t *testing.T) {
	k := newTestCG(t)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	// After 30 iterations on a 27-dof SPD system, CG has converged (exact
	// in ≤ 27 steps in exact arithmetic). Check A·x ≈ b.
	x := linalg.Vector(g.Output)
	ax := linalg.NewVector(k.a.N)
	k.a.MulVec(ax, x)
	if res := linalg.LInfDist(ax, k.b); res > 1e-8 {
		t.Errorf("residual L∞ = %g, want < 1e-8", res)
	}
}

func TestCGSiteLayout(t *testing.T) {
	a := linalg.Poisson3D(2, 2, 2) // n = 8
	b := linalg.NewVector(a.N)
	fillRandom(b, 2)
	k, err := NewCG(CGConfig{A: a, B: b, Iters: 4, Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	want := n + (2*n + 1) + 4*(4*n+4)
	if got := trace.CountSites(k); got != want {
		t.Errorf("sites = %d, want %d", got, want)
	}
	// Phase names and counts.
	ph := k.Phases()
	if ph[0].Name != "zero-init" || ph[1].Name != "init" || ph[2].Name != "iter-0" {
		t.Errorf("unexpected phase names: %v", ph)
	}
	if len(ph) != 2+4 {
		t.Errorf("phase count = %d, want 6", len(ph))
	}
}

func TestCGZeroInitValues(t *testing.T) {
	k := newTestCG(t)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	// The first n sites are the zero-init stores.
	for i := 0; i < k.a.N; i++ {
		if g.Trace[i] != 0 {
			t.Fatalf("trace[%d] = %g, want 0 (zero-init region)", i, g.Trace[i])
		}
	}
}

func TestCGLateErrorDamped(t *testing.T) {
	// CG's iterative refinement damps small perturbations: a mantissa-bit
	// flip in an early iteration is corrected by later iterations.
	k := newTestCG(t)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a mid-mantissa flip (bit 30, relative error ~2^-22) into the
	// first iteration's q vector and confirm the final output still
	// matches within tolerance.
	site := k.Phases()[2].Start // first site of iter-0
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: 30})
	if res.Crashed {
		t.Fatal("unexpected crash")
	}
	d := linalg.LInfDist(res.Output, g.Output)
	if d > k.Tolerance() {
		t.Errorf("damped error %g exceeds tolerance %g", d, k.Tolerance())
	}
}

func TestCGTopExponentFlipCausesDamage(t *testing.T) {
	// A flip of the top exponent bit in a late-iteration x store either
	// crashes or produces output far outside tolerance: it cannot be
	// silently masked.
	k := newTestCG(t)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	last := k.Phases()[len(k.Phases())-1]
	// x-update stores start after q (n) + pq + alpha (2) sites.
	site := last.Start + k.a.N + 2
	if math.Abs(g.Trace[site]) < 1e-12 {
		t.Skip("target value ~0; exponent flip harmless")
	}
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: 62})
	if res.Crashed {
		return // acceptable outcome
	}
	d := linalg.LInfDist(res.Output, g.Output)
	if d <= k.Tolerance() {
		t.Errorf("late top-exponent flip produced error %g within tolerance %g", d, k.Tolerance())
	}
}

func TestCGConfigValidation(t *testing.T) {
	a := linalg.Poisson3D(2, 2, 2)
	b := linalg.NewVector(a.N)
	cases := []CGConfig{
		{A: nil, B: b, Iters: 1, Tolerance: 1},
		{A: a, B: b[:3], Iters: 1, Tolerance: 1},
		{A: a, B: b, Iters: 0, Tolerance: 1},
		{A: a, B: b, Iters: 1, Tolerance: 0},
	}
	for i, cfg := range cases {
		if _, err := NewCG(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCGOutputIndependentOfCtxReuse(t *testing.T) {
	k := newTestCG(t)
	g1, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	var ctx trace.Ctx
	// A crashing run in between must not corrupt subsequent golden state.
	trace.Run(&ctx, k, nil, trace.Plan{Site: 0, Bit: 62})
	g2, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.LInfDist(g1.Output, g2.Output); d != 0 {
		t.Errorf("golden output changed after crashed run: %g", d)
	}
}
