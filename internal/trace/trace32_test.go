package trace

import (
	"math"
	"testing"

	"ftb/internal/bits"
)

// sumProg32 is the single-precision analogue of sumProg.
type sumProg32 struct {
	inputs []float32
}

func (p *sumProg32) Name() string { return "sum32" }

func (p *sumProg32) Run(ctx *Ctx) []float64 {
	var s float32
	for _, v := range p.inputs {
		v = ctx.Store32(v)
		s = ctx.Store32(s + v)
	}
	return []float64{float64(s)}
}

func TestStore32GoldenRecordsWidened(t *testing.T) {
	p := &sumProg32{inputs: []float32{1, 2, 3}}
	g, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2, 3, 3, 6}
	if len(g.Trace) != len(want) {
		t.Fatalf("trace length %d", len(g.Trace))
	}
	for i, w := range want {
		if g.Trace[i] != w {
			t.Errorf("trace[%d] = %g, want %g", i, g.Trace[i], w)
		}
	}
}

func TestStore32InjectsOn32BitPattern(t *testing.T) {
	p := &sumProg32{inputs: []float32{1, 2, 3}}
	var ctx Ctx
	// Sign flip of the float32 input 2 at site 2.
	res, _ := Run(&ctx, p, nil, Plan{Site: 2, Bit: 31})
	if !res.Injected || res.Crashed {
		t.Fatalf("res = %+v", res)
	}
	if res.Output[0] != 2 { // 1 - 2 + 3
		t.Errorf("output = %g, want 2", res.Output[0])
	}
	if res.InjErr != 4 {
		t.Errorf("InjErr = %g, want 4", res.InjErr)
	}
}

func TestStore32CrashOnUnsafeFlip(t *testing.T) {
	// float32 1.0 has exponent 0x7f; flipping bit 30 (the top exponent
	// bit) yields 0xff -> Inf.
	if !bits.FlipMakesUnsafe32(1.0, 30) {
		t.Fatal("premise wrong")
	}
	p := &sumProg32{inputs: []float32{1, 2}}
	var ctx Ctx
	res, _ := Run(&ctx, p, nil, Plan{Site: 0, Bit: 30})
	if !res.Crashed || res.CrashAt != 0 {
		t.Fatalf("res = %+v", res)
	}
	if !math.IsInf(res.InjErr, 1) {
		t.Errorf("InjErr = %g", res.InjErr)
	}
}

func TestStore32RejectsWideBit(t *testing.T) {
	p := &sumProg32{inputs: []float32{1}}
	var ctx Ctx
	defer func() {
		if recover() == nil {
			t.Fatal("bit 32 against 32-bit site did not panic")
		}
	}()
	Run(&ctx, p, nil, Plan{Site: 0, Bit: 32})
}

func TestStore32DiffStreams(t *testing.T) {
	p := &sumProg32{inputs: []float32{1, 2, 3}}
	g, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	var ctx Ctx
	sink := &recordingSink{}
	res, err := Run(&ctx, p, g, Plan{Site: 2, Bit: 31, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("crashed")
	}
	want := []float64{0, 0, 4, 4, 0, 4}
	if len(sink.deltas) != len(want) {
		t.Fatalf("observed %d deltas", len(sink.deltas))
	}
	for i, w := range want {
		if sink.deltas[i] != w {
			t.Errorf("delta[%d] = %g, want %g", i, sink.deltas[i], w)
		}
	}
}
