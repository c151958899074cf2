package proptrace

import (
	"math"
	"strings"
	"testing"

	"ftb/internal/outcome"
)

// feed drives a recorder through one synthetic run: site/delta pairs in
// execution order (golden fixed at 1.0 unless overridden per call).
func feed(r *Recorder, run, worker, site int, bit uint8, deltas []float64) {
	r.BeginRun(run, worker, site, bit)
	for i, d := range deltas {
		r.Observe(i, 1.0, d)
	}
	r.EndRun(outcome.Masked, deltas[site], 0, -1)
}

func TestRecorderLandmarks(t *testing.T) {
	buf := NewBuffer()
	r := NewRecorder(buf, Options{Program: "synthetic"})
	// Injection at site 2: deltas rise to a max of 8 at site 4, blow up
	// (>1.0 relative to golden 1.0) at site 3, and decay to exactly
	// zero at site 6.
	feed(r, 7, 3, 2, 40, []float64{0, 0, 0.5, 2, 8, 0.25, 0, 0})
	ts := buf.Trajectories()
	if len(ts) != 1 {
		t.Fatalf("got %d trajectories", len(ts))
	}
	tr := ts[0]
	if tr.Run != 7 || tr.Worker != 3 || tr.Site != 2 || tr.Bit != 40 {
		t.Errorf("tags: %+v", tr)
	}
	if tr.Program != "synthetic" || tr.Outcome != "masked" {
		t.Errorf("program/outcome: %+v", tr)
	}
	if tr.Sites != 8 {
		t.Errorf("Sites = %d, want 8", tr.Sites)
	}
	if tr.Max.Site != 4 || float64(tr.Max.Delta) != 8 {
		t.Errorf("Max = %+v, want site 4 delta 8", tr.Max)
	}
	if tr.FirstBlowup != 3 {
		t.Errorf("FirstBlowup = %d, want 3", tr.FirstBlowup)
	}
	if tr.FirstZero != 6 {
		t.Errorf("FirstZero = %d, want 6", tr.FirstZero)
	}
	if tr.CrashSite != -1 {
		t.Errorf("CrashSite = %d, want -1", tr.CrashSite)
	}
	// Pre-injection sites are not sampled; stride 1 retains every
	// post-injection site.
	if tr.Stride != 1 || len(tr.Samples) != 6 {
		t.Fatalf("stride %d, %d samples; want 1, 6", tr.Stride, len(tr.Samples))
	}
	if tr.Samples[0].Site != 2 || tr.Samples[5].Site != 7 {
		t.Errorf("sample sites: %+v", tr.Samples)
	}
}

func TestRecorderStrideDoublingBoundsSamples(t *testing.T) {
	buf := NewBuffer()
	const cap = 64
	r := NewRecorder(buf, Options{MaxSamples: cap})
	n := 10_000
	r.BeginRun(0, 0, 0, 1)
	for i := 0; i < n; i++ {
		r.Observe(i, 1.0, 1e-3+float64(i))
	}
	r.EndRun(outcome.SDC, 1, 2, -1)
	tr := buf.Trajectories()[0]
	if len(tr.Samples) > cap {
		t.Fatalf("%d samples exceed cap %d", len(tr.Samples), cap)
	}
	if len(tr.Samples) < cap/2 {
		t.Fatalf("%d samples, want at least cap/2 = %d", len(tr.Samples), cap/2)
	}
	if tr.Stride < n/cap {
		t.Errorf("stride %d too small for %d sites at cap %d", tr.Stride, n, cap)
	}
	// Retained samples sit exactly Stride apart, starting at the
	// injection site.
	for i, s := range tr.Samples {
		if s.Site != i*tr.Stride {
			t.Fatalf("sample %d at site %d, want %d", i, s.Site, i*tr.Stride)
		}
	}
	// The maximum (the last, largest delta) is captured exactly even
	// though the last site is rarely on-stride.
	if tr.Max.Site != n-1 {
		t.Errorf("Max.Site = %d, want %d", tr.Max.Site, n-1)
	}
}

func TestRecorderDeterministic(t *testing.T) {
	run := func() Trajectory {
		buf := NewBuffer()
		r := NewRecorder(buf, Options{MaxSamples: 32})
		r.BeginRun(1, 2, 5, 62)
		for i := 0; i < 1000; i++ {
			r.Observe(i, float64(i), float64(i%17)*1e-6)
		}
		r.EndRun(outcome.Masked, 1e-6, 0, -1)
		return buf.Trajectories()[0]
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) || a.Stride != b.Stride {
		t.Fatalf("nondeterministic downsampling: %d/%d vs %d/%d",
			len(a.Samples), a.Stride, len(b.Samples), b.Stride)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestRecorderCrashRun(t *testing.T) {
	buf := NewBuffer()
	r := NewRecorder(buf, Options{})
	r.BeginRun(0, 0, 3, 62)
	for i := 0; i < 5; i++ { // crash after observing site 4
		r.Observe(i, 1.0, 0)
	}
	r.EndRun(outcome.Crash, math.Inf(1), math.Inf(1), 5)
	tr := buf.Trajectories()[0]
	if tr.Outcome != "crash" || tr.CrashSite != 5 {
		t.Errorf("%+v", tr)
	}
	if !math.IsInf(float64(tr.InjErr), 1) || !math.IsInf(float64(tr.OutErr), 1) {
		t.Errorf("inf fields lost: %+v", tr)
	}
}

func TestRecorderUnarmedObserveIsNoop(t *testing.T) {
	buf := NewBuffer()
	r := NewRecorder(buf, Options{})
	r.Observe(0, 1, 1) // must not panic or record
	r.EndRun(outcome.Masked, 0, 0, -1)
	if buf.Len() != 0 {
		t.Errorf("unarmed EndRun recorded a trajectory")
	}
}

func TestBufferSortsByRun(t *testing.T) {
	buf := NewBuffer()
	for _, run := range []int{5, 1, 3} {
		r := NewRecorder(buf, Options{})
		r.BeginRun(run, 0, 0, 0)
		r.Observe(0, 1, 0.5)
		r.EndRun(outcome.Masked, 0.5, 0, -1)
	}
	ts := buf.Trajectories()
	if ts[0].Run != 1 || ts[1].Run != 3 || ts[2].Run != 5 {
		t.Errorf("order: %d %d %d", ts[0].Run, ts[1].Run, ts[2].Run)
	}
}

func TestAggregateAndRender(t *testing.T) {
	buf := NewBuffer()
	r := NewRecorder(buf, Options{})
	// Two trajectories with decaying errors.
	for run := 0; run < 2; run++ {
		r.BeginRun(run, 0, 0, 40)
		for i := 0; i < 200; i++ {
			r.Observe(i, 1.0, math.Pow(10, -float64(i)/20))
		}
		r.EndRun(outcome.Masked, 1, 0, -1)
	}
	p := Aggregate(buf.Trajectories(), 200, 40, 8)
	if p.Trajectories != 2 || p.Samples == 0 {
		t.Fatalf("profile: %+v", p)
	}
	out := p.Render("")
	if !strings.Contains(out, "error decay") || !strings.Contains(out, "dynamic instruction 0 .. 199") {
		t.Errorf("render:\n%s", out)
	}
	// A decaying signal must populate more than one row.
	rows := 0
	for _, row := range p.Counts {
		for _, c := range row {
			if c > 0 {
				rows++
				break
			}
		}
	}
	if rows < 3 {
		t.Errorf("decay collapsed into %d rows:\n%s", rows, out)
	}
}

func TestAggregateEmpty(t *testing.T) {
	p := Aggregate(nil, 0, 0, 0)
	if p.Cols != 96 || p.Rows != 16 {
		t.Errorf("defaults: %+v", p)
	}
	if out := p.Render(""); !strings.Contains(out, "0 trajectories") {
		t.Errorf("render:\n%s", out)
	}
}
