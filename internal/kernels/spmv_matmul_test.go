package kernels

import (
	"math"
	"testing"

	"ftb/internal/linalg"
	"ftb/internal/trace"
)

func TestSpMVAgainstLinalg(t *testing.T) {
	k, err := NewSpMV(SpMVConfig{NX: 4, NY: 4, Steps: 1, Seed: 1, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.NewVector(k.a.N)
	k.a.MulVec(want, k.x0)
	want.Scale(k.scale)
	if d := linalg.LInfDist(g.Output, want); d > 1e-14 {
		t.Errorf("spmv differs from linalg by %g", d)
	}
}

func TestSpMVScaleKeepsBounded(t *testing.T) {
	k, err := NewSpMV(SpMVConfig{NX: 8, NY: 8, Steps: 20, Seed: 2, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Trace {
		if math.Abs(v) > 1.0001 {
			t.Fatalf("trace[%d] = %g escapes [-1,1]", i, v)
		}
	}
}

func TestSpMVScaleIsInfNorm(t *testing.T) {
	// 2-D Poisson interior rows sum to |4|+4·|-1| = 8.
	k, err := NewSpMV(SpMVConfig{NX: 5, NY: 5, Steps: 1, Seed: 1, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k.scale != 0.125 {
		t.Errorf("scale = %g, want 1/8", k.scale)
	}
}

func TestSpMVErrorSpreads(t *testing.T) {
	// After k steps an error at grid point p reaches its k-hop
	// neighbourhood: with enough steps it reaches many outputs.
	k, err := NewSpMV(SpMVConfig{NX: 8, NY: 8, Steps: 8, Seed: 3, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	var ctx trace.Ctx
	// Inject in the first step at a central site with a mid-mantissa flip.
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: 27, Bit: 45})
	if res.Crashed {
		t.Fatal("unexpected crash")
	}
	changed := 0
	for i := range res.Output {
		if res.Output[i] != g.Output[i] {
			changed++
		}
	}
	if changed < 16 {
		t.Errorf("error reached only %d outputs", changed)
	}
}

func TestSpMVValidation(t *testing.T) {
	bad := []SpMVConfig{
		{NX: 0, NY: 4, Steps: 1, Tolerance: 1},
		{NX: 4, NY: 4, Steps: 0, Tolerance: 1},
		{NX: 4, NY: 4, Steps: 1, Tolerance: 0},
	}
	for i, cfg := range bad {
		if _, err := NewSpMV(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMatMulAgainstLinalg(t *testing.T) {
	k, err := NewMatMul(MatMulConfig{N: 7, Seed: 5, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.NewDense(7, 7)
	linalg.Mul(want, k.a, k.b)
	if d := linalg.LInfDist(g.Output, want.Data); d > 1e-14 {
		t.Errorf("matmul differs from linalg by %g", d)
	}
}

func TestMatMulOutputErrorEqualsInjected(t *testing.T) {
	// Stores are the output elements themselves: perfectly monotonic,
	// output error == injected error for every safe flip.
	k, err := NewMatMul(MatMulConfig{N: 5, Seed: 6, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Golden(k); err != nil {
		t.Fatal(err)
	}
	var ctx trace.Ctx
	for _, site := range []int{0, 7, 24} {
		for _, bit := range []uint{0, 20, 40, 63} {
			res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: site, Bit: bit})
			if res.Crashed {
				continue
			}
			g, _ := trace.Golden(k)
			if d := linalg.LInfDist(res.Output, g.Output); d != res.InjErr {
				t.Fatalf("site %d bit %d: output error %g != injected %g", site, bit, d, res.InjErr)
			}
		}
	}
}

func TestMatMulValidation(t *testing.T) {
	if _, err := NewMatMul(MatMulConfig{N: 0, Tolerance: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewMatMul(MatMulConfig{N: 3, Tolerance: 0}); err == nil {
		t.Error("zero tolerance accepted")
	}
}
