// Internal regression tests for the two-tier replay cache: pool-seeded
// restores for targets behind the head (the dynamic-scheduling backward
// jump), and the error paths that must drop the held snapshot rather
// than leave a half-built prefix behind.
package campaign

import (
	"testing"

	"ftb/internal/trace"
)

// poolProg is a minimal MultiSnapshotter chain program for driving a
// replayCache directly. n is mutable so a test can make the program run
// short and force trace.Advance to fail mid-prepare.
type poolProg struct {
	n int
	v []float64
}

func newPoolProg(n int) *poolProg { return &poolProg{n: n, v: make([]float64, n)} }

func (p *poolProg) Name() string { return "poolprog" }

func (p *poolProg) Run(ctx *trace.Ctx) []float64 {
	for i := ctx.ResumePos(); i < p.n; i++ {
		prev := 1.0
		if i > 0 {
			prev = p.v[i-1]
		}
		p.v[i] = ctx.Store(prev*1.0003 + float64(i%5))
	}
	return []float64{p.v[len(p.v)-1]}
}

func (p *poolProg) Snapshot() trace.State { return p.SnapshotInto(nil) }

func (p *poolProg) Restore(s trace.State) { copy(p.v, s.([]float64)) }

func (p *poolProg) SnapshotInto(dst trace.State) trace.State {
	buf, _ := dst.([]float64)
	if len(buf) != len(p.v) {
		buf = make([]float64, len(p.v))
	}
	copy(buf, p.v)
	return buf
}

// newPoolCache builds p's replayCache over the golden trace of an
// n-store poolProg, with a small pool so the pool-step arithmetic
// (39 prefixes / cap 8 → step 5) is exercised.
func newPoolCache(t *testing.T, n int, p *poolProg) *replayCache {
	t.Helper()
	golden, err := trace.Golden(newPoolProg(n))
	if err != nil {
		t.Fatal(err)
	}
	rc := newReplayCache(golden.Sites(), p)
	rc.poolCap = 8
	return rc
}

// TestReplayCachePoolServesBackwardTarget pins the pool tier: after the
// head has moved deep into the trace, a prepare for an earlier site —
// what a dynamic scheduler handing this worker an older batch looks
// like — must restore from a pooled golden boundary, not re-run the
// golden prefix from the entry, and the experiment launched from that
// restore must classify byte-identically to a from-scratch run.
func TestReplayCachePoolServesBackwardTarget(t *testing.T) {
	const n = 40
	p := newPoolProg(n)
	rc := newPoolCache(t, n, p)
	var ctx trace.Ctx

	pr, err := rc.prepare(&ctx, 30)
	if err != nil {
		t.Fatal(err)
	}
	if pr.resume != 30 {
		t.Fatalf("first prepare resume = %d, want 30", pr.resume)
	}
	trace.Run(&ctx, p, nil, trace.Plan{Site: 30, Bit: 3, Resume: pr.resume})

	// Backward jump: head holds prefix 30, target is 12. The pool entry
	// at 10 (step 5) is the nearest usable base.
	pr, err = rc.prepare(&ctx, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pr.tier != tierPool {
		t.Fatalf("backward prepare tier = %d, want tierPool", pr.tier)
	}
	if pr.resume != 12 {
		t.Fatalf("backward prepare resume = %d, want 12", pr.resume)
	}
	got, _ := trace.Run(&ctx, p, nil, trace.Plan{Site: 12, Bit: 3, Resume: pr.resume})

	var vctx trace.Ctx
	want, _ := trace.Run(&vctx, newPoolProg(n), nil, trace.Plan{Site: 12, Bit: 3})
	if got.Crashed != want.Crashed || len(got.Output) != len(want.Output) {
		t.Fatalf("pool-restored run = %+v, want %+v", got, want)
	}
	for i := range want.Output {
		if got.Output[i] != want.Output[i] {
			t.Fatalf("output[%d] = %g, want %g", i, got.Output[i], want.Output[i])
		}
	}

	// The rebuilt head is now a site-snapshot hit for the site's next bit.
	pr, err = rc.prepare(&ctx, 12)
	if err != nil {
		t.Fatal(err)
	}
	if pr.tier != tierSite {
		t.Fatalf("repeat prepare tier = %d, want tierSite hit", pr.tier)
	}
}

// TestReplayCacheDropsStateOnAdvanceError pins the error-path contract:
// a prepare whose golden advance fails must release both the cached
// prefix length AND the state buffer — a later prepare must rebuild
// rather than restore a snapshot whose build never completed — and the
// cache must recover once the program behaves again.
func TestReplayCacheDropsStateOnAdvanceError(t *testing.T) {
	const n = 40
	p := newPoolProg(n)
	rc := newPoolCache(t, n, p)
	var ctx trace.Ctx

	if _, err := rc.prepare(&ctx, 7); err != nil {
		t.Fatal(err)
	}
	if rc.cached != 7 || rc.state == nil {
		t.Fatalf("head after prepare = (%d, %v)", rc.cached, rc.state != nil)
	}

	// Shrink the program so the advance from the pooled base at 10 to
	// the target 12 returns before pausing.
	p.n = 10
	if _, err := rc.prepare(&ctx, 12); err == nil {
		t.Fatal("prepare with a short-running program succeeded")
	}
	if rc.cached != -1 || rc.state != nil || rc.lastResume != -1 {
		t.Fatalf("head not dropped after failed advance: cached=%d state=%v lastResume=%d",
			rc.cached, rc.state != nil, rc.lastResume)
	}

	p.n = n
	pr, err := rc.prepare(&ctx, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := trace.Run(&ctx, p, nil, trace.Plan{Site: 12, Bit: 5, Resume: pr.resume})
	var vctx trace.Ctx
	want, _ := trace.Run(&vctx, newPoolProg(n), nil, trace.Plan{Site: 12, Bit: 5})
	for i := range want.Output {
		if got.Output[i] != want.Output[i] {
			t.Fatalf("post-recovery output[%d] = %g, want %g", i, got.Output[i], want.Output[i])
		}
	}
}

// TestReplayCacheDropsStateOnPoolBuildError covers the other error
// path: a failed lazy pool build must also leave the cache empty, and
// the error must surface to the caller.
func TestReplayCacheDropsStateOnPoolBuildError(t *testing.T) {
	const n = 40
	p := newPoolProg(n)
	p.n = 3 // too short for even the first pooled boundary at 5
	rc := newPoolCache(t, n, p)
	var ctx trace.Ctx

	if _, err := rc.prepare(&ctx, 2); err == nil {
		t.Fatal("prepare with a failing pool build succeeded")
	}
	if rc.cached != -1 || rc.state != nil || len(rc.pool) != 0 {
		t.Fatalf("cache not empty after failed pool build: cached=%d state=%v pool=%d",
			rc.cached, rc.state != nil, len(rc.pool))
	}
}

// TestConvergePolicyDisarmsNonConverging pins the adaptive converge
// policy: armed runs that end without a proven reconvergence (ConvergedAt
// 0) count against their fault coordinate until it disarms, crashes are
// neutral, and a proven reconvergence re-arms it.
func TestConvergePolicyDisarmsNonConverging(t *testing.T) {
	rc := &replayCache{conv: true, poolStep: 5, pool: make([]trace.State, 7)}
	const site, bit = 3, 9 // not a re-probe site: 3 % convReprobeEvery != 0
	for i := 0; i < convFailLimit; i++ {
		if _, _, ok := rc.convergeSchedule(site, bit); !ok {
			t.Fatalf("disarmed after %d non-converging runs", i)
		}
		rc.convergeResult(bit, trace.InjectResult{})
	}
	if _, _, ok := rc.convergeSchedule(site, bit); ok {
		t.Fatal("still armed after non-converging runs")
	}
	rc.convergeResult(bit, trace.InjectResult{Crashed: true})
	if _, _, ok := rc.convergeSchedule(site, bit); ok {
		t.Fatal("a crash re-armed the coordinate")
	}
	rc.convergeResult(bit, trace.InjectResult{ConvergedAt: 5})
	if _, _, ok := rc.convergeSchedule(site, bit); !ok {
		t.Fatal("a proven reconvergence did not re-arm the coordinate")
	}
}
