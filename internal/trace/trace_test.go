package trace

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ftb/internal/bits"
)

// sumProg is a tiny data-oblivious program: it stores a sequence of
// values, accumulates their running sum (each partial sum is itself a
// tracked store), and outputs the final sum.
type sumProg struct {
	inputs []float64
}

func (p *sumProg) Name() string { return "sum" }

func (p *sumProg) Run(ctx *Ctx) []float64 {
	s := 0.0
	for _, v := range p.inputs {
		v = ctx.Store(v)
		s = ctx.Store(s + v)
	}
	return []float64{s}
}

// divProg divides by each stored value, so a flip that lands a zero (or
// produces a huge exponent) can produce Inf/NaN downstream — crash food.
type divProg struct{}

func (divProg) Name() string { return "div" }

func (divProg) Run(ctx *Ctx) []float64 {
	x := ctx.Store(2.0)
	y := ctx.Store(1.0 / x)
	z := ctx.Store(y * 3)
	return []float64{z}
}

func TestCountSites(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2, 3}}
	if got := CountSites(p); got != 6 {
		t.Errorf("CountSites = %d, want 6", got)
	}
}

func TestGoldenTraceAndOutput(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2, 3}}
	g, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	wantTrace := []float64{1, 1, 2, 3, 3, 6}
	if len(g.Trace) != len(wantTrace) {
		t.Fatalf("trace length %d, want %d", len(g.Trace), len(wantTrace))
	}
	for i, v := range wantTrace {
		if g.Trace[i] != v {
			t.Errorf("trace[%d] = %g, want %g", i, g.Trace[i], v)
		}
	}
	if len(g.Output) != 1 || g.Output[0] != 6 {
		t.Errorf("output = %v, want [6]", g.Output)
	}
}

func TestGoldenRejectsUnsafe(t *testing.T) {
	p := &sumProg{inputs: []float64{1, math.Inf(1)}}
	if _, err := Golden(p); !errors.Is(err, ErrGoldenUnsafe) {
		t.Errorf("err = %v, want ErrGoldenUnsafe", err)
	}
}

func TestInjectFlipsExactlyOneSite(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2, 3}}
	var ctx Ctx
	// Flip the sign bit of the value stored at site 2 (the raw input 2).
	res, _ := Run(&ctx, p, nil, Plan{Site: 2, Bit: 63})
	if !res.Injected {
		t.Fatal("injection did not fire")
	}
	if res.Crashed {
		t.Fatal("unexpected crash")
	}
	// Sum becomes 1 + (-2) + 3 = 2.
	if res.Output[0] != 2 {
		t.Errorf("output = %g, want 2", res.Output[0])
	}
	if res.InjErr != 4 {
		t.Errorf("InjErr = %g, want 4 (|-2-2|)", res.InjErr)
	}
}

func TestInjectPastEndDoesNotFire(t *testing.T) {
	p := &sumProg{inputs: []float64{1}}
	var ctx Ctx
	res, _ := Run(&ctx, p, nil, Plan{Site: 100, Bit: 0})
	if res.Injected {
		t.Error("injection fired past end of trace")
	}
	if res.Output[0] != 1 {
		t.Errorf("output = %g, want 1", res.Output[0])
	}
}

func TestInjectCrashOnUnsafeFlip(t *testing.T) {
	// Flipping the top exponent bit of 1.0 (bit 62) yields +Inf -> crash at
	// the injection site itself.
	p := &sumProg{inputs: []float64{1, 2}}
	var ctx Ctx
	res, _ := Run(&ctx, p, nil, Plan{Site: 0, Bit: 62})
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	if res.CrashAt != 0 {
		t.Errorf("CrashAt = %d, want 0", res.CrashAt)
	}
	if res.Output != nil {
		t.Error("crashed run should have nil output")
	}
	if !math.IsInf(res.InjErr, 1) {
		t.Errorf("InjErr = %g, want +Inf", res.InjErr)
	}
}

func TestInjectCrashDownstream(t *testing.T) {
	// divProg stores 2.0 then 1/2. Bit 62 of 2.0 clears the whole exponent
	// field (0x400 ^ 0x400 = 0) and the mantissa is zero, so the corrupted
	// value is exactly +0.0; the next store computes 1/0 = +Inf and the run
	// crashes downstream of the injection site.
	var ctx Ctx
	res, _ := Run(&ctx, divProg{}, nil, Plan{Site: 0, Bit: 62})
	if !res.Crashed {
		t.Fatal("expected downstream crash")
	}
	if res.CrashAt != 1 {
		t.Errorf("CrashAt = %d, want 1", res.CrashAt)
	}
}

type recordingSink struct {
	sites  []int
	golden []float64
	deltas []float64
}

func (s *recordingSink) Observe(site int, golden, delta float64) {
	s.sites = append(s.sites, site)
	s.golden = append(s.golden, golden)
	s.deltas = append(s.deltas, delta)
}

func TestInjectDiffStreamsPropagation(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2, 3}}
	g, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	var ctx Ctx
	sink := &recordingSink{}
	res, err := Run(&ctx, p, g, Plan{Site: 2, Bit: 63, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed || !res.Injected {
		t.Fatalf("res = %+v", res)
	}
	// Expected deltas: sites 0,1 untouched (0), site 2 flipped (|-2-2|=4),
	// site 3 running sum off by 4, site 4 raw input untouched, site 5 sum
	// still off by 4.
	want := []float64{0, 0, 4, 4, 0, 4}
	if len(sink.deltas) != len(want) {
		t.Fatalf("observed %d sites, want %d", len(sink.deltas), len(want))
	}
	for i, w := range want {
		if sink.deltas[i] != w {
			t.Errorf("delta[%d] = %g, want %g", i, sink.deltas[i], w)
		}
		if sink.sites[i] != i {
			t.Errorf("site order broken at %d: %d", i, sink.sites[i])
		}
		if sink.golden[i] != g.Trace[i] {
			t.Errorf("golden[%d] = %g, want %g", i, sink.golden[i], g.Trace[i])
		}
	}
}

func TestInjectDiffCrashStopsSink(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2}}
	g, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	var ctx Ctx
	sink := &recordingSink{}
	res, err := Run(&ctx, p, g, Plan{Site: 0, Bit: 62, Sink: sink}) // unsafe at site 0
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("expected crash")
	}
	if len(sink.sites) != 0 {
		t.Errorf("sink observed %d sites after crash at injection, want 0", len(sink.sites))
	}
}

func TestCtxReuseAcrossRuns(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2, 3}}
	var ctx Ctx
	for i := 0; i < 3; i++ {
		res, _ := Run(&ctx, p, nil, Plan{Site: 2, Bit: 63})
		if res.Output[0] != 2 {
			t.Fatalf("run %d output %g, want 2", i, res.Output[0])
		}
	}
	// Then a clean count still works.
	ctx.Count()
	p.Run(&ctx)
	if ctx.Sites() != 6 {
		t.Errorf("Sites after reuse = %d, want 6", ctx.Sites())
	}
}

func TestForeignPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("foreign panic swallowed")
		}
		if r != "kernel bug" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	var ctx Ctx
	Run(&ctx, panicProg{}, nil, Plan{Site: 0, Bit: 0})
}

type panicProg struct{}

func (panicProg) Name() string       { return "panic" }
func (panicProg) Run(*Ctx) []float64 { panic("kernel bug") }

// Property: an injection with the identity of a masked sign flip of zero
// (bit 63 on 0.0 gives -0.0, error 0) never changes the sum output.
func TestQuickZeroSignFlipHarmless(t *testing.T) {
	f := func(raw []float64) bool {
		inputs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			inputs = append(inputs, v)
		}
		if len(inputs) == 0 {
			return true
		}
		p := &sumProg{inputs: inputs}
		g, err := Golden(p)
		if err != nil {
			return true
		}
		var ctx Ctx
		// Inject sign flip into the first raw-input site whose value is 0;
		// if none, trivially pass.
		for i, v := range g.Trace {
			if v == 0 {
				res, _ := Run(&ctx, p, nil, Plan{Site: i, Bit: 63})
				return !res.Crashed && res.Output[0] == g.Output[0] && res.InjErr == 0
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: injected error reported by the ctx matches the bits-package
// prediction for safe flips.
func TestQuickInjErrMatchesBits(t *testing.T) {
	f := func(v float64, bitRaw uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		bit := uint(bitRaw) % 64
		p := &sumProg{inputs: []float64{v}}
		var ctx Ctx
		res, _ := Run(&ctx, p, nil, Plan{Site: 0, Bit: bit})
		if bits.FlipMakesUnsafe(v, bit) {
			return res.Crashed && math.IsInf(res.InjErr, 1)
		}
		// Flip is finite; the error may still overflow to +Inf (|f-v| for
		// huge v) and both sides must agree on it.
		return res.InjErr == bits.Err64(v, bit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkStoreInject(b *testing.B) {
	p := &sumProg{inputs: make([]float64, 512)}
	for i := range p.inputs {
		p.inputs[i] = float64(i) * 0.25
	}
	var ctx Ctx
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(&ctx, p, nil, Plan{Site: i % 1024, Bit: uint(i) & 63})
	}
}

func BenchmarkStoreInjectDiff(b *testing.B) {
	p := &sumProg{inputs: make([]float64, 512)}
	for i := range p.inputs {
		p.inputs[i] = float64(i) * 0.25
	}
	g, err := Golden(p)
	if err != nil {
		b.Fatal(err)
	}
	var ctx Ctx
	sink := &recordingSink{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.sites = sink.sites[:0]
		sink.golden = sink.golden[:0]
		sink.deltas = sink.deltas[:0]
		if _, err := Run(&ctx, p, g, Plan{Site: i % 1024, Bit: 3, Sink: sink}); err != nil {
			b.Fatal(err)
		}
	}
}
