package campaign

import (
	"strings"
	"testing"

	"ftb/internal/outcome"
	"ftb/internal/trace"
)

// goldenWithSites builds a minimal golden run with the given site count.
func goldenWithSites(n int) *trace.GoldenRun {
	return &trace.GoldenRun{Trace: make([]float64, n), Output: []float64{0}}
}

func validGT(sites, bits, width int) *GroundTruth {
	return &GroundTruth{
		SitesN: sites,
		BitsN:  bits,
		WidthN: width,
		Kinds:  make([]outcome.Kind, sites*bits),
	}
}

func TestValidateAccepts(t *testing.T) {
	g := goldenWithSites(4)
	for _, gt := range []*GroundTruth{
		validGT(4, 64, 64),
		validGT(4, 32, 32),
		validGT(4, 8, 64),
		{SitesN: 4, BitsN: 64, Kinds: make([]outcome.Kind, 4*64)}, // legacy zero width defaults to 64
	} {
		if err := gt.Validate(g); err != nil {
			t.Errorf("Validate(%dx%d w%d) = %v, want nil", gt.SitesN, gt.BitsN, gt.WidthN, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	g := goldenWithSites(4)
	cases := []struct {
		name string
		gt   *GroundTruth
		want string
	}{
		{"site count", validGT(3, 64, 64), "sites"},
		{"bad width", validGT(4, 16, 16), "width"},
		{"bits above width", validGT(4, 48, 32), "bits"},
		{"zero bits", &GroundTruth{SitesN: 4, BitsN: 0, WidthN: 64}, "bits"},
		{"short kinds", &GroundTruth{SitesN: 4, BitsN: 64, WidthN: 64, Kinds: make([]outcome.Kind, 4*64-1)}, "records"},
		{"long kinds", &GroundTruth{SitesN: 4, BitsN: 64, WidthN: 64, Kinds: make([]outcome.Kind, 4*64+3)}, "records"},
	}
	bad := validGT(4, 64, 64)
	bad.Kinds[130] = outcome.Kind(outcome.NumKinds)
	cases = append(cases, struct {
		name string
		gt   *GroundTruth
		want string
	}{"invalid kind", bad, "invalid outcome kind"})

	for _, c := range cases {
		err := c.gt.Validate(g)
		if err == nil {
			t.Errorf("%s: Validate = nil, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateInvalidKindCoordinates checks the error pinpoints the bad
// record's (site, bit) coordinates, which is what makes a corrupt shard
// response debuggable.
func TestValidateInvalidKindCoordinates(t *testing.T) {
	gt := validGT(4, 64, 64)
	gt.Kinds[2*64+7] = outcome.Kind(200)
	err := gt.Validate(goldenWithSites(4))
	if err == nil {
		t.Fatal("Validate accepted an invalid kind")
	}
	for _, want := range []string{"site 2", "bit 7", "200"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error %q missing %q", err, want)
		}
	}
}

func TestFrontierMerge(t *testing.T) {
	var f Frontier
	if f.Current() != 0 || f.Pending() != 0 {
		t.Fatalf("zero frontier = (%d, %d), want (0, 0)", f.Current(), f.Pending())
	}
	if f.RangeDone(4, 8); f.Current() != 0 {
		t.Error("out-of-order range advanced the frontier")
	}
	if f.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", f.Pending())
	}
	if f.RangeDone(0, 4); f.Current() != 8 {
		t.Errorf("frontier = %d, want 8 (chained through the pending range)", f.Current())
	}
	// A long out-of-order tail collapses in one advance.
	f.RangeDone(12, 16)
	f.RangeDone(16, 20)
	if f.Current() != 8 {
		t.Errorf("frontier = %d, want 8", f.Current())
	}
	if f.RangeDone(8, 12); f.Current() != 20 {
		t.Errorf("RangeDone(8,12) left frontier %d, want advance to 20", f.Current())
	}
	if f.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", f.Pending())
	}
}
