package kernels

import (
	"testing"

	"ftb/internal/sections"
	"ftb/internal/trace"
)

// TestSectionInvariants is the kernels-wide invariant check the section
// declarations in sections.go rely on: for every registered kernel that
// implements sections.Declarer, the declared layout must partition the
// dynamic-instruction range exactly (contiguous, non-overlapping,
// covering CountSites), carry usable names, and agree with the replay
// substrate — a run truncated at a declared boundary pauses exactly
// there, and the golden advance machinery can drive a fresh instance to
// the same boundary.
func TestSectionInvariants(t *testing.T) {
	declared := 0
	for _, name := range Names() {
		k, err := New(name, SizeTest)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, ok := k.(sections.Declarer)
		if !ok {
			continue
		}
		declared++
		t.Run(name, func(t *testing.T) {
			secs := d.Sections()
			sites := trace.CountSites(k)
			if err := sections.Validate(secs, sites); err != nil {
				t.Fatal(err)
			}
			for i, s := range secs {
				if s.Name == "" {
					t.Errorf("section %d has no name", i)
				}
				if sections.Find(secs, s.Start) != i || sections.Find(secs, s.End-1) != i {
					t.Errorf("section %d (%q): Find disagrees with the declared bounds", i, s.Name)
				}
			}

			golden, err := trace.Golden(k)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range secs {
				// A benign injection at the section's first site,
				// truncated at its end boundary: interior boundaries
				// must pause exactly there (the sink then saw exactly
				// the stores [0, End)); the last boundary is the trace
				// end, where the run completes like a full run.
				p, err := New(name, SizeTest)
				if err != nil {
					t.Fatal(err)
				}
				var ctx trace.Ctx
				var count countingSink
				res, err := trace.Run(&ctx, p, golden, trace.Plan{Site: s.Start, Until: s.End, Sink: &count})
				if err != nil {
					t.Fatalf("section %d (%q): %v", i, s.Name, err)
				}
				last := i == len(secs)-1
				switch {
				case res.Crashed:
					t.Fatalf("section %d (%q): bit-0 injection at site %d crashed at %d",
						i, s.Name, s.Start, res.CrashAt)
				case last && res.Paused:
					t.Errorf("section %d (%q): run paused at the trace end instead of completing", i, s.Name)
				case !last && !res.Paused:
					t.Errorf("section %d (%q): run never paused at boundary %d", i, s.Name, s.End)
				case !last && count.n != s.End:
					t.Errorf("section %d (%q): observed %d stores through boundary %d",
						i, s.Name, count.n, s.End)
				}

				// The golden advance machinery must reach the same
				// interior boundaries (the checkpointed-replay
				// contract composed campaigns build on).
				if snap, ok := p.(trace.Snapshotter); ok && !last {
					q, _ := New(name, SizeTest)
					var actx trace.Ctx
					if err := trace.Advance(&actx, q, 0, s.End); err != nil {
						t.Errorf("section %d (%q): %v", i, s.Name, err)
					}
					_ = snap
				}
			}
		})
	}
	if declared < 5 {
		t.Fatalf("only %d kernels declare sections; the in-tree set (lu, fft, gmres, cg, stencil) should", declared)
	}
}

// countingSink counts observed stores.
type countingSink struct{ n int }

func (c *countingSink) Observe(int, float64, float64) { c.n++ }
