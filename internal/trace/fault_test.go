package trace

import (
	"math"
	"testing"

	"ftb/internal/bits"
)

// TestFaultModelSticky: the installed model survives re-arming through
// every arming path, including every plan shape Run resolves.
func TestFaultModelSticky(t *testing.T) {
	m := bits.FaultModel{Kind: bits.FaultBurstFlip, K: 3}
	var c Ctx
	c.SetFaultModel(m)
	g := &GoldenRun{Trace: make([]float64, 4)}
	sink := &recordingSink{}
	stateAt := func(int) (State, bool) { return nil, false }
	arm := []func(){
		c.Count,
		func() { c.Record(nil) },
		func() { c.arm(g, Plan{}) },
		func() { c.arm(g, Plan{Sink: sink}) },
		func() { c.arm(g, Plan{Site: 1, Resume: 1}) },
		func() { c.arm(g, Plan{Site: 1, Resume: 1, Sink: sink}) },
		func() { c.arm(g, Plan{Site: 1, Resume: 1, Until: 2, Sink: sink}) },
		func() { c.arm(g, Plan{Site: -1}) },
		func() { c.arm(g, Plan{Site: 1, Converge: Converge{First: 2, Step: 1, StateAt: stateAt}}) },
		func() { c.armAdvance(0, 1) },
	}
	for i, f := range arm {
		f()
		if c.FaultModel() != m {
			t.Fatalf("arming method %d dropped the fault model", i)
		}
	}
}

// TestInjectAppliesModel64: a burst injection perturbs the store exactly as
// the model's Apply64 says, and the diff plan agrees.
func TestInjectAppliesModel64(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2, 3}}
	m := bits.FaultModel{Kind: bits.FaultBurstFlip, K: 2}
	const site, coord = 2, 10

	golden, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Apply64(golden.Trace[site], site, coord)

	var c Ctx
	c.SetFaultModel(m)
	res, _ := Run(&c, p, nil, Plan{Site: site, Bit: coord})
	if !res.Injected {
		t.Fatal("injection did not fire")
	}
	wantErr := math.Abs(want - golden.Trace[site])
	if res.InjErr != wantErr {
		t.Fatalf("InjErr = %g, want %g", res.InjErr, wantErr)
	}
	// The corrupted partial sum propagates to the output linearly in
	// sumProg, so the output deviation equals the injected error.
	if d := math.Abs(res.Output[0] - golden.Output[0]); math.Abs(d-wantErr) > 1e-9*math.Abs(wantErr) {
		t.Fatalf("output deviation %g, want ≈ %g", d, wantErr)
	}

	res2, err := Run(&c, p, golden, Plan{Site: site, Bit: coord, Sink: &recordingSink{}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.InjErr != res.InjErr || res2.Output[0] != res.Output[0] {
		t.Fatal("the diff plan disagrees with the plain plan under a fault model")
	}
}

// TestInjectAppliesModel32: region-targeted stuck-at on a 32-bit site, and
// the population guard rejects out-of-range coordinates.
func TestInjectAppliesModel32(t *testing.T) {
	p := &sum32Prog{inputs: []float32{1.5, 2.25}}
	m := bits.FaultModel{Kind: bits.FaultStuckAt1, Region: bits.RegionExponent}
	golden, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	const site, coord = 1, 3
	want := m.Apply32(float32(golden.Trace[site]), site, coord)

	var c Ctx
	c.SetFaultModel(m)
	res, _ := Run(&c, p, nil, Plan{Site: site, Bit: coord})
	if !res.Injected {
		t.Fatal("injection did not fire")
	}
	wantErr := math.Abs(float64(want) - golden.Trace[site])
	if res.InjErr != wantErr {
		t.Fatalf("InjErr = %g, want %g", res.InjErr, wantErr)
	}

	// Coordinate 8 is outside the 8-bit 32-bit exponent population.
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-population coordinate did not panic")
		}
	}()
	Run(&c, p, nil, Plan{Site: site, Bit: 8})
}

// TestStuckAtCanBeNoOp: stuck-at faults that match the existing bit leave
// the value unchanged but still count as injected with zero error.
func TestStuckAtCanBeNoOp(t *testing.T) {
	p := &sumProg{inputs: []float64{1, 2}}
	golden, err := Golden(p)
	if err != nil {
		t.Fatal(err)
	}
	const site = 1 // golden value 1.0: sign bit is 0
	var c Ctx
	c.SetFaultModel(bits.FaultModel{Kind: bits.FaultStuckAt0, Region: bits.RegionSign})
	res, _ := Run(&c, p, nil, Plan{Site: site, Bit: 0})
	if !res.Injected {
		t.Fatal("no-op stuck-at did not count as injected")
	}
	if res.InjErr != 0 {
		t.Fatalf("InjErr = %g, want 0", res.InjErr)
	}
	if res.Output[0] != golden.Output[0] {
		t.Fatal("no-op stuck-at changed the output")
	}
}
