package boundary

import (
	"math"
	"testing"

	"ftb/internal/kernels"
	"ftb/internal/rng"
	"ftb/internal/trace"
)

// significant is the paper's Figure 4 row 2 test written with the
// division the significance floors replace: a nonzero delta above
// SignificanceRel relative to g, or absolute where g is zero.
func significant(g, delta float64) bool {
	if delta == 0 {
		return false
	}
	ag := math.Abs(g)
	if ag < math.SmallestNonzeroFloat64 {
		return delta > SignificanceRel
	}
	return delta/ag > SignificanceRel
}

// checkFloor fails t unless significanceFloor(g) is the exact edge of
// the division test: the floor itself is insignificant and the next
// float64 above it is significant.
func checkFloor(t *testing.T, what string, g float64) {
	t.Helper()
	f := significanceFloor(g)
	if f < 0 || significant(g, f) {
		t.Fatalf("%s: golden %g (bits %#x): floor %g is significant or negative", what, g, math.Float64bits(g), f)
	}
	if up := math.Nextafter(f, math.Inf(1)); !significant(g, up) {
		t.Fatalf("%s: golden %g (bits %#x): %g just above floor %g is not significant", what, g, math.Float64bits(g), up, f)
	}
}

func TestSignificanceFloorIsExact(t *testing.T) {
	for _, g := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, 0x1.fffffffffffffp-1023,
		1, -1, 1e-8, 1e8, 3, 1.0 / 3, math.MaxFloat64, -math.MaxFloat64, 0x1p1023,
	} {
		checkFloor(t, "edge", g)
	}
	r := rng.New(1)
	for i := 0; i < 200000; i++ {
		g := math.Float64frombits(r.Uint64())
		if math.IsNaN(g) || math.IsInf(g, 0) {
			continue
		}
		checkFloor(t, "random bits", g)
		// Subnormals and huge magnitudes are a sliver of the random bit
		// patterns, so draw from each range directly too.
		checkFloor(t, "subnormal", math.Float64frombits(r.Uint64()&(1<<52-1)))
		checkFloor(t, "huge", math.Float64frombits(0x7fe0000000000000|r.Uint64()&(1<<52-1)))
	}
	// No error is significant against a non-finite golden value.
	for _, g := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		f := significanceFloor(g)
		for _, d := range []float64{0, 1, math.MaxFloat64, math.Inf(1)} {
			if significant(g, d) || d > f {
				t.Errorf("golden %g: delta %g significant (floor %g)", g, d, f)
			}
		}
	}
}

func TestSignificanceFloorOnKernelGoldens(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, size := range []string{kernels.SizeSmall, kernels.SizePaper} {
			k, err := kernels.New(name, size)
			if err != nil {
				t.Fatal(err)
			}
			g, err := trace.Golden(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range g.Trace {
				checkFloor(t, name+"-"+size, v)
			}
		}
	}
}
