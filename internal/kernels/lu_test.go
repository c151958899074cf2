package kernels

import (
	"testing"

	"ftb/internal/linalg"
	"ftb/internal/trace"
)

func newTestLU(t *testing.T, n, block int) *LU {
	t.Helper()
	k, err := NewLU(LUConfig{N: n, Block: block, Seed: 7, Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestLUFactorizationCorrect(t *testing.T) {
	for _, cfg := range []struct{ n, block int }{
		{4, 4}, {8, 4}, {8, 3}, {16, 8}, {12, 5},
	} {
		k := newTestLU(t, cfg.n, cfg.block)
		g, err := trace.Golden(k)
		if err != nil {
			t.Fatal(err)
		}
		f := &linalg.Dense{Rows: cfg.n, Cols: cfg.n, Data: g.Output}
		l, u := f.ExtractLU()
		lu := linalg.NewDense(cfg.n, cfg.n)
		linalg.Mul(lu, l, u)
		orig := &linalg.Dense{Rows: cfg.n, Cols: cfg.n, Data: k.orig}
		if d := linalg.LInfDistDense(lu, orig); d > 1e-10 {
			t.Errorf("n=%d block=%d: |L·U − A|∞ = %g", cfg.n, cfg.block, d)
		}
	}
}

func TestLUMatchesUnblocked(t *testing.T) {
	// Blocked and unblocked (block == n) factorizations must agree to
	// rounding.
	blocked := newTestLU(t, 12, 4)
	unblocked, err := NewLU(LUConfig{N: 12, Block: 12, Seed: 7, Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := trace.Golden(blocked)
	if err != nil {
		t.Fatal(err)
	}
	gu, err := trace.Golden(unblocked)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.LInfDist(gb.Output, gu.Output); d > 1e-11 {
		t.Errorf("blocked vs unblocked factors differ by %g", d)
	}
}

func TestLUPhasePerBlockStep(t *testing.T) {
	k := newTestLU(t, 32, 16) // the paper's shape: 2 block steps
	ph := k.Phases()
	if len(ph) != 2 {
		t.Fatalf("phases = %d, want 2", len(ph))
	}
	if ph[0].Name != "block-0" || ph[1].Name != "block-1" {
		t.Errorf("phase names: %v", ph)
	}
}

func TestLUSiteCountFormula(t *testing.T) {
	// Spot-check the phase layout against the actual trace for a
	// non-dividing block size.
	k := newTestLU(t, 10, 4)
	if got, want := trace.CountSites(k), k.Phases()[len(k.Phases())-1].End; got != want {
		t.Errorf("sites = %d, layout says %d", got, want)
	}
}

func TestLUDiagonalFlipCrashesOrCorrupts(t *testing.T) {
	// Corrupting the first pivot with a top-exponent flip makes every
	// later division nonsense: the run must not be masked.
	k := newTestLU(t, 8, 4)
	g, err := trace.Golden(k)
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 is the first L store (division by the pivot).
	var ctx trace.Ctx
	res, _ := trace.Run(&ctx, k, nil, trace.Plan{Site: 0, Bit: 62})
	if res.Crashed {
		return
	}
	if d := linalg.LInfDist(res.Output, g.Output); d <= k.Tolerance() {
		t.Errorf("pivot corruption masked: error %g", d)
	}
}

func TestLUConfigValidation(t *testing.T) {
	cases := []LUConfig{
		{N: 0, Block: 1, Tolerance: 1},
		{N: 4, Block: 0, Tolerance: 1},
		{N: 4, Block: 5, Tolerance: 1},
		{N: 4, Block: 2, Tolerance: 0},
	}
	for i, cfg := range cases {
		if _, err := NewLU(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLUDeterministicInput(t *testing.T) {
	a, err := NewLU(LUConfig{N: 6, Block: 3, Seed: 9, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLU(LUConfig{N: 6, Block: 3, Seed: 9, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.orig {
		if a.orig[i] != b.orig[i] {
			t.Fatal("same seed produced different inputs")
		}
	}
	c, err := NewLU(LUConfig{N: 6, Block: 3, Seed: 10, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.orig {
		if a.orig[i] != c.orig[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical inputs")
	}
}
