package kernels

import (
	"math"
	"testing"

	"ftb/internal/linalg"
	"ftb/internal/trace"
)

func TestGMRESSolvesSystem(t *testing.T) {
	// 4x4 grid (n=16), full Krylov space in one cycle: exact in theory.
	k, err := NewGMRES(GMRESConfig{NX: 4, NY: 4, M: 16, Restarts: 1, Seed: 1, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	ax := linalg.NewVector(k.a.N)
	k.a.MulVec(ax, g.Output)
	if res := linalg.LInfDist(ax, k.b); res > 1e-10 {
		t.Errorf("residual L∞ = %g after full-space GMRES", res)
	}
}

func TestGMRESRestartsReduceResidual(t *testing.T) {
	resAfter := func(restarts int) float64 {
		k, err := NewGMRES(GMRESConfig{NX: 5, NY: 5, M: 5, Restarts: restarts, Seed: 2, Tolerance: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		ax := linalg.NewVector(k.a.N)
		k.a.MulVec(ax, g.Output)
		return linalg.LInfDist(ax, k.b)
	}
	r1, r4 := resAfter(1), resAfter(4)
	if r4 >= r1 {
		t.Errorf("4 restarts residual %g not below 1 restart %g", r4, r1)
	}
}

func TestGMRESSiteLayoutMatchesTrace(t *testing.T) {
	k, err := NewGMRES(GMRESConfig{NX: 4, NY: 3, M: 5, Restarts: 3, Seed: 3, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trace.CountSites(k), k.Phases()[len(k.Phases())-1].End; got != want {
		t.Errorf("sites = %d, layout says %d", got, want)
	}
}

func TestGMRESBetaScaleInvariance(t *testing.T) {
	// GMRES absorbs even enormous corruptions of the initial residual
	// norm: a sign flip of beta rescales v0 and g0 consistently (exact
	// invariance, output error 0), and large upscalings shrink v0 toward
	// zero while the *next restart* recomputes the residual from the
	// actual iterate and repairs the damage. The boundary method discovers
	// this genuinely non-obvious masking automatically — injected errors
	// of 1e10..1e150 at the beta site end masked.
	k, err := NewGMRES(GMRESConfig{NX: 4, NY: 4, M: 6, Restarts: 2, Seed: 4, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	var ctx trace.Ctx
	masked := 0
	for _, bit := range []uint{57, 58, 59, 60, 63} { // huge scalings + sign
		res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: k.a.N, Bit: bit}) // the beta store
		if res.Crashed {
			continue
		}
		if linalg.LInfDist(res.Output, g.Output) <= k.Tolerance() {
			masked++
		}
	}
	if masked < 5 {
		t.Errorf("only %d/5 beta corruptions masked; restart should absorb them", masked)
	}
	// In contrast, corrupting a basis-vector component mid-Arnoldi is NOT
	// an invariance: a large flip there must damage or crash the run.
	site := k.a.N + 1 + 5 // a v0 component store
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: 62})
	if !res.Crashed && linalg.LInfDist(res.Output, g.Output) <= k.Tolerance() {
		t.Error("top-exponent flip on a basis component was masked")
	}
}

func TestGMRESValidation(t *testing.T) {
	bad := []GMRESConfig{
		{NX: 1, NY: 4, M: 2, Restarts: 1, Tolerance: 1},
		{NX: 4, NY: 4, M: 0, Restarts: 1, Tolerance: 1},
		{NX: 4, NY: 4, M: 2, Restarts: 0, Tolerance: 1},
		{NX: 4, NY: 4, M: 2, Restarts: 1, Tolerance: 0},
		{NX: 2, NY: 2, M: 9, Restarts: 1, Tolerance: 1}, // m > n
	}
	for i, cfg := range bad {
		if _, err := NewGMRES(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMultigridConverges(t *testing.T) {
	// V-cycles must drive the fine-grid residual down by orders of
	// magnitude (textbook multigrid efficiency).
	residual := func(cycles int) float64 {
		k, err := NewMultigrid(MultigridConfig{Levels: 5, Cycles: cycles, Smooth: 2, Seed: 5, Tolerance: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		n := k.interior(0)
		h2 := 1.0 / float64((n+1)*(n+1))
		u := g.Output
		var maxr float64
		for i := 1; i <= n; i++ {
			r := k.rhs[i] - (2*u[i]-u[i-1]-u[i+1])/h2
			if math.Abs(r) > maxr {
				maxr = math.Abs(r)
			}
		}
		return maxr
	}
	r1, r6 := residual(1), residual(6)
	if r6 > r1/100 {
		t.Errorf("6 cycles residual %g, 1 cycle %g: expected ≥100x reduction", r6, r1)
	}
}

func TestMultigridSiteLayoutMatchesTrace(t *testing.T) {
	k, err := NewMultigrid(MultigridConfig{Levels: 5, Cycles: 3, Smooth: 2, Seed: 6, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trace.CountSites(k), k.Phases()[len(k.Phases())-1].End; got != want {
		t.Errorf("sites = %d, layout says %d", got, want)
	}
}

func TestMultigridCoarseErrorFansOut(t *testing.T) {
	// An error injected into the coarsest-grid solve spreads through
	// prolongation to many fine-grid outputs.
	k, err := NewMultigrid(MultigridConfig{Levels: 5, Cycles: 1, Smooth: 1, Seed: 7, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the coarsest solve: with levels L, it is the single store
	// between the down-leg and up-leg; find the site whose value matches
	// the coarsest u. Instead of arithmetic, inject mid-trace (the
	// V-cycle bottom is near the middle of the cycle's sites).
	site := g.Sites() / 2
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: 51})
	if res.Crashed {
		t.Skip("crashed; pick of bit landed badly")
	}
	changed := 0
	for i := range res.Output {
		if res.Output[i] != g.Output[i] {
			changed++
		}
	}
	if changed < 4 {
		t.Errorf("mid-cycle corruption reached only %d outputs", changed)
	}
}

func TestMultigridValidation(t *testing.T) {
	bad := []MultigridConfig{
		{Levels: 1, Cycles: 1, Smooth: 1, Tolerance: 1},
		{Levels: 3, Cycles: 0, Smooth: 1, Tolerance: 1},
		{Levels: 3, Cycles: 1, Smooth: 0, Tolerance: 1},
		{Levels: 3, Cycles: 1, Smooth: 1, Tolerance: 0},
	}
	for i, cfg := range bad {
		if _, err := NewMultigrid(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
