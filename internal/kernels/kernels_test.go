package kernels

import (
	"strings"
	"testing"

	"ftb/internal/trace"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"cg", "cholesky", "fft", "gmres", "heat3d", "lu", "matmul", "matvec", "multigrid", "spmv", "stencil", "stencil32"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestRegistryUnknownKernel(t *testing.T) {
	if _, err := New("nope", SizeTest); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("err = %v, want unknown kernel", err)
	}
}

func TestRegistryUnknownSize(t *testing.T) {
	for _, name := range Names() {
		if _, err := New(name, "gigantic"); err == nil || !strings.Contains(err.Error(), "unknown size") {
			t.Errorf("%s: err = %v, want unknown size", name, err)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("cg", nil)
}

// Every kernel, at every size: golden run succeeds, trace is non-empty and
// NaN-free, repeated runs are bitwise identical (determinism), the phase
// map tiles [0, Sites) exactly, and the tolerance is positive.
func TestAllKernelsGoldenContract(t *testing.T) {
	for _, name := range Names() {
		for _, size := range []string{SizeTest, SizeSmall} {
			k, err := New(name, size)
			if err != nil {
				t.Fatalf("New(%s,%s): %v", name, size, err)
			}
			t.Run(name+"/"+size, func(t *testing.T) {
				g1, err := trace.Golden(k)
				if err != nil {
					t.Fatal(err)
				}
				if g1.Sites() == 0 {
					t.Fatal("empty trace")
				}
				if len(g1.Output) == 0 {
					t.Fatal("empty output")
				}
				g2, err := trace.Golden(k)
				if err != nil {
					t.Fatal(err)
				}
				if g1.Sites() != g2.Sites() {
					t.Fatalf("trace sizes differ across runs: %d vs %d", g1.Sites(), g2.Sites())
				}
				for i := range g1.Trace {
					if g1.Trace[i] != g2.Trace[i] {
						t.Fatalf("trace[%d] differs across runs: %g vs %g", i, g1.Trace[i], g2.Trace[i])
					}
				}
				for i := range g1.Output {
					if g1.Output[i] != g2.Output[i] {
						t.Fatalf("output[%d] differs across runs", i)
					}
				}
				if got := trace.CountSites(k); got != g1.Sites() {
					t.Fatalf("CountSites = %d, golden trace = %d", got, g1.Sites())
				}
				if k.Tolerance() <= 0 {
					t.Error("non-positive tolerance")
				}
				checkPhaseTiling(t, k.Phases(), g1.Sites())
			})
		}
	}
}

func checkPhaseTiling(t *testing.T, phases []Phase, sites int) {
	t.Helper()
	if len(phases) == 0 {
		t.Fatal("no phases")
	}
	pos := 0
	for _, p := range phases {
		if p.Start != pos {
			t.Fatalf("phase %q starts at %d, want %d", p.Name, p.Start, pos)
		}
		if p.End <= p.Start {
			t.Fatalf("phase %q empty or inverted: [%d,%d)", p.Name, p.Start, p.End)
		}
		pos = p.End
	}
	if pos != sites {
		t.Fatalf("phases cover [0,%d), trace has %d sites", pos, sites)
	}
}

// An injection at every phase boundary must still produce a classifiable
// run (no foreign panics, no trace-length mismatch).
func TestAllKernelsInjectionSafety(t *testing.T) {
	for _, name := range Names() {
		k, err := New(name, SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		var ctx trace.Ctx
		sink := discardSink{}
		bitsToTry := []uint{0, 31, 51, 62, 63}
		if k.Width() == 32 {
			bitsToTry = []uint{0, 15, 22, 30, 31}
		}
		for _, p := range k.Phases() {
			for _, site := range []int{p.Start, p.End - 1} {
				for _, bit := range bitsToTry {
					res, err := trace.Run(&ctx, k, g, trace.Plan{Site: site, Bit: bit, Sink: sink})
					if err != nil {
						t.Fatalf("%s site %d bit %d: %v", name, site, bit, err)
					}
					if !res.Injected {
						t.Fatalf("%s site %d: injection did not fire", name, site)
					}
					if !res.Crashed && len(res.Output) != len(g.Output) {
						t.Fatalf("%s site %d: output length %d, want %d", name, site, len(res.Output), len(g.Output))
					}
				}
			}
		}
	}
}

type discardSink struct{}

func (discardSink) Observe(int, float64, float64) {}

// A flip of the lowest mantissa bit early in the run must be Masked for
// every kernel at its own tolerance: one ulp of perturbation never pushes
// these well-conditioned kernels past T.
func TestAllKernelsUlpFlipIsMasked(t *testing.T) {
	for _, name := range Names() {
		k, err := New(name, SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		var ctx trace.Ctx
		res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: g.Sites() / 2, Bit: 0})
		if res.Crashed {
			t.Errorf("%s: ulp flip crashed", name)
			continue
		}
		var maxd float64
		for i := range res.Output {
			d := res.Output[i] - g.Output[i]
			if d < 0 {
				d = -d
			}
			if d > maxd {
				maxd = d
			}
		}
		if maxd > k.Tolerance() {
			t.Errorf("%s: ulp flip output error %g exceeds tolerance %g", name, maxd, k.Tolerance())
		}
	}
}
