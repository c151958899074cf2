package trace

import (
	"math"
	"testing"
)

// dampProg is a StateComparer chain whose live state is a single
// accumulator: every third store multiplies the previous value by zero,
// so an injected error is wiped out bit-exactly at the next damping
// step. That makes it the minimal program where a reconvergence probe
// can actually succeed — after damping, the accumulator equals the
// golden value exactly, not just approximately.
type dampProg struct {
	n    int
	damp bool // damping steps present; false makes every fault persist
	cur  float64
	snap []float64
}

func newDampProg(n int, damp bool) *dampProg { return &dampProg{n: n, damp: damp} }

func (p *dampProg) Name() string { return "damp" }

func (p *dampProg) Run(ctx *Ctx) []float64 {
	for i := ctx.ResumePos(); i < p.n; i++ {
		w := 0.5
		if p.damp && i%3 == 0 {
			w = 0
		}
		p.cur = ctx.Store(w*p.cur + float64(i%5) + 1)
	}
	return []float64{p.cur}
}

func (p *dampProg) Snapshot() State { return p.SnapshotInto(nil) }

func (p *dampProg) SnapshotInto(dst State) State {
	buf, _ := dst.([]float64)
	if len(buf) != 1 {
		buf = make([]float64, 1)
	}
	buf[0] = p.cur
	return buf
}

func (p *dampProg) Restore(s State) { p.cur = s.([]float64)[0] }

func (p *dampProg) StateEqual(s State) bool {
	return math.Float64bits(s.([]float64)[0]) == math.Float64bits(p.cur)
}

// goldenStates advances a fresh instance through the golden trace and
// snapshots every pooled boundary (multiples of step), mimicking the
// campaign layer's snapshot pool.
func goldenStates(t *testing.T, n, step int, damp bool) func(int) (State, bool) {
	t.Helper()
	p := newDampProg(n, damp)
	var ctx Ctx
	states := map[int]State{}
	prev := 0
	for b := step; b < n; b += step {
		if err := Advance(&ctx, p, prev, b); err != nil {
			t.Fatal(err)
		}
		states[b] = p.SnapshotInto(nil)
		prev = b
	}
	return func(k int) (State, bool) {
		s, ok := states[k]
		return s, ok
	}
}

// TestConvergeEarlyExitMatchesGolden pins the early-exit contract: a
// fault that damps out must be detected at a quiet probe boundary, and
// the short-circuited result must carry the golden output — which a
// vanilla run of the same coordinate reproduces independently.
func TestConvergeEarlyExitMatchesGolden(t *testing.T) {
	const n, step = 60, 5
	golden, err := Golden(newDampProg(n, true))
	if err != nil {
		t.Fatal(err)
	}
	stateAt := goldenStates(t, n, step, true)

	// Flip a low mantissa bit early: the perturbation survives only
	// until the next i%3 == 0 damping step.
	const site, bit = 7, 2
	var vctx Ctx
	want, _ := Run(&vctx, newDampProg(n, true), nil, Plan{Site: site, Bit: bit})
	if want.Crashed {
		t.Fatal("vanilla run crashed; pick a tamer coordinate")
	}

	var ctx Ctx
	p := newDampProg(n, true)
	res, err := Run(&ctx, p, golden, Plan{Site: site, Bit: bit,
		Converge: Converge{First: 10, Step: step, StateAt: stateAt}})
	if err != nil {
		t.Fatal(err)
	}
	convergedAt, probes := res.ConvergedAt, res.Probes
	if convergedAt == 0 {
		t.Fatal("damped fault did not trigger an early exit")
	}
	if convergedAt%step != 0 || convergedAt <= site || convergedAt >= n {
		t.Errorf("convergedAt = %d, want a probe boundary in (%d, %d)", convergedAt, site, n)
	}
	if probes < 1 {
		t.Errorf("probes = %d, want ≥ 1", probes)
	}
	if len(res.Output) != len(want.Output) {
		t.Fatalf("output length %d, want %d", len(res.Output), len(want.Output))
	}
	for i := range want.Output {
		if math.Float64bits(res.Output[i]) != math.Float64bits(want.Output[i]) {
			t.Errorf("output[%d] = %g, want %g", i, res.Output[i], want.Output[i])
		}
	}
	if !res.Injected {
		t.Error("early-exited run lost the injected flag")
	}
}

// TestConvergeNoExitMatchesVanilla pins the fallthrough: with damping
// off every fault persists to the end, so an armed run must complete
// with ConvergedAt = 0 and a result byte-identical to a plain run —
// failed probes double the spacing but never change the outcome.
func TestConvergeNoExitMatchesVanilla(t *testing.T) {
	const n, step = 60, 5
	golden, err := Golden(newDampProg(n, false))
	if err != nil {
		t.Fatal(err)
	}
	stateAt := goldenStates(t, n, step, false)

	const site, bit = 7, 44
	var vctx Ctx
	want, _ := Run(&vctx, newDampProg(n, false), nil, Plan{Site: site, Bit: bit})

	var ctx Ctx
	res, err := Run(&ctx, newDampProg(n, false), golden, Plan{Site: site, Bit: bit,
		Converge: Converge{First: 10, Step: step, StateAt: stateAt}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt != 0 {
		t.Fatalf("persistent fault reported convergence at %d", res.ConvergedAt)
	}
	if res.Crashed != want.Crashed || len(res.Output) != len(want.Output) {
		t.Fatalf("armed run = %+v, want %+v", res, want)
	}
	for i := range want.Output {
		if math.Float64bits(res.Output[i]) != math.Float64bits(want.Output[i]) {
			t.Errorf("output[%d] = %g, want %g", i, res.Output[i], want.Output[i])
		}
	}
}

// TestConvergeUnpooledBoundaryResumes checks that a quiet boundary whose
// golden state is not pooled counts as a failed probe (resume, double
// the spacing) rather than a false exit or a crash.
func TestConvergeUnpooledBoundaryResumes(t *testing.T) {
	const n, step = 60, 5
	golden, err := Golden(newDampProg(n, true))
	if err != nil {
		t.Fatal(err)
	}
	// No pooled states at all: every probe must fail, and the run must
	// still finish with the vanilla result.
	none := func(int) (State, bool) { return nil, false }

	const site, bit = 7, 2
	var vctx Ctx
	want, _ := Run(&vctx, newDampProg(n, true), nil, Plan{Site: site, Bit: bit})

	var ctx Ctx
	res, err := Run(&ctx, newDampProg(n, true), golden, Plan{Site: site, Bit: bit,
		Converge: Converge{First: 10, Step: step, StateAt: none}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt != 0 {
		t.Fatalf("convergence claimed at %d with no pooled states", res.ConvergedAt)
	}
	if res.Probes == 0 {
		t.Error("no probes paid despite quiet boundaries")
	}
	for i := range want.Output {
		if math.Float64bits(res.Output[i]) != math.Float64bits(want.Output[i]) {
			t.Errorf("output[%d] = %g, want %g", i, res.Output[i], want.Output[i])
		}
	}
}
