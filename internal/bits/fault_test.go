package bits

import (
	"math"
	"math/bits"
	"testing"
)

func TestFaultModelDefaultMatchesFlip(t *testing.T) {
	var m FaultModel
	if !m.IsDefault() {
		t.Fatal("zero FaultModel is not default")
	}
	vals := []float64{0, 1, -2.5, 1e-300, math.Pi}
	for _, v := range vals {
		for b := uint(0); b < Width64; b++ {
			if got, want := m.Apply64(v, 7, b), Flip64(v, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Apply64(%g, bit %d) = %g, Flip64 = %g", v, b, got, want)
			}
		}
	}
	for b := uint(0); b < Width32; b++ {
		if got, want := m.Apply32(1.5, 3, b), Flip32(1.5, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Apply32(bit %d) = %g, Flip32 = %g", b, got, want)
		}
	}
}

func TestFaultModelPopulations(t *testing.T) {
	cases := []struct {
		region Region
		w64    int
		w32    int
	}{
		{RegionAll, 64, 32},
		{RegionMantissa, 52, 23},
		{RegionExponent, 11, 8},
		{RegionSign, 1, 1},
	}
	for _, c := range cases {
		m := FaultModel{Region: c.region}
		if got := m.BitsPerSite(Width64); got != c.w64 {
			t.Errorf("region %d BitsPerSite(64) = %d, want %d", c.region, got, c.w64)
		}
		if got := m.BitsPerSite(Width32); got != c.w32 {
			t.Errorf("region %d BitsPerSite(32) = %d, want %d", c.region, got, c.w32)
		}
	}
}

// TestFaultModelRegionMasks verifies region-targeted flips only touch the
// named field, at both widths.
func TestFaultModelRegionMasks(t *testing.T) {
	const (
		mant64 = uint64(1)<<52 - 1
		exp64  = uint64(0x7ff) << 52
		sign64 = uint64(1) << 63
	)
	regions64 := map[Region]uint64{RegionMantissa: mant64, RegionExponent: exp64, RegionSign: sign64}
	v := 3.141592653589793
	for region, field := range regions64 {
		m := FaultModel{Region: region}
		for c := 0; c < m.BitsPerSite(Width64); c++ {
			diff := math.Float64bits(v) ^ math.Float64bits(m.Apply64(v, 0, uint(c)))
			if bits.OnesCount64(diff) != 1 || diff&field == 0 {
				t.Fatalf("region %d coord %d flipped bits %#x outside field %#x", region, c, diff, field)
			}
		}
	}
	const (
		mant32 = uint32(1)<<23 - 1
		exp32  = uint32(0xff) << 23
		sign32 = uint32(1) << 31
	)
	regions32 := map[Region]uint32{RegionMantissa: mant32, RegionExponent: exp32, RegionSign: sign32}
	v32 := float32(2.71828)
	for region, field := range regions32 {
		m := FaultModel{Region: region}
		for c := 0; c < m.BitsPerSite(Width32); c++ {
			diff := math.Float32bits(v32) ^ math.Float32bits(m.Apply32(v32, 0, uint(c)))
			if bits.OnesCount32(diff) != 1 || diff&field == 0 {
				t.Fatalf("region %d coord %d flipped bits %#x outside field %#x", region, c, diff, field)
			}
		}
	}
}

// TestFaultModelStuckAtIdempotent: applying a stuck-at fault twice equals
// applying it once, and the result has the bit forced to the stuck value.
func TestFaultModelStuckAtIdempotent(t *testing.T) {
	vals := []float64{0, 1, -1, 255.75, -1e300}
	for _, kind := range []FaultKind{FaultStuckAt0, FaultStuckAt1} {
		m := FaultModel{Kind: kind}
		for _, v := range vals {
			for c := uint(0); c < Width64; c++ {
				once := m.Apply64(v, 5, c)
				twice := m.Apply64(once, 5, c)
				if math.Float64bits(once) != math.Float64bits(twice) {
					t.Fatalf("%v not idempotent at coord %d on %g", m, c, v)
				}
				bit := math.Float64bits(once) >> c & 1
				want := uint64(0)
				if kind == FaultStuckAt1 {
					want = 1
				}
				if bit != want {
					t.Fatalf("%v left bit %d = %d on %g", m, c, bit, v)
				}
			}
		}
		// 32-bit spot check.
		v32 := float32(7.5)
		for c := uint(0); c < Width32; c++ {
			once := m.Apply32(v32, 5, c)
			if got := m.Apply32(once, 5, c); math.Float32bits(got) != math.Float32bits(once) {
				t.Fatalf("%v not idempotent at 32-bit coord %d", m, c)
			}
		}
	}
}

// TestFaultModelBurstBoundary: bursts clamp at the region edge instead of
// wrapping, so the topmost coordinate flips exactly one bit.
func TestFaultModelBurstBoundary(t *testing.T) {
	for _, tc := range []struct {
		region Region
		width  int
		k      int
	}{
		{RegionAll, Width64, 4},
		{RegionAll, Width32, 4},
		{RegionMantissa, Width64, 3},
		{RegionExponent, Width32, 5},
	} {
		m := FaultModel{Kind: FaultBurstFlip, Region: tc.region, K: tc.k}
		n := uint(m.BitsPerSite(tc.width))
		start, _ := m.regionSpan(tc.width)
		for c := uint(0); c < n; c++ {
			diff := m.xorMask(tc.width, 0, c)
			want := int(tc.k)
			if rem := int(n - c); rem < want {
				want = rem
			}
			if got := bits.OnesCount64(diff); got != want {
				t.Fatalf("%v width %d coord %d: burst flips %d bits, want %d", m, tc.width, c, got, want)
			}
			lo := bits.TrailingZeros64(diff)
			hi := 63 - bits.LeadingZeros64(diff)
			if uint(lo) != start+c || uint(hi) >= start+n {
				t.Fatalf("%v width %d coord %d: burst span [%d,%d] escapes region [%d,%d)", m, tc.width, c, lo, hi, start+c, start+n)
			}
		}
	}
}

// TestFaultModelMultiFlipDeterministic: partner bits are a pure function of
// (site, coord), stay inside the region, and hit exactly K bits.
func TestFaultModelMultiFlipDeterministic(t *testing.T) {
	m := FaultModel{Kind: FaultMultiFlip, Region: RegionExponent, K: 3}
	n := uint(m.BitsPerSite(Width64))
	start, _ := m.regionSpan(Width64)
	field := (uint64(1)<<n - 1) << start
	seen := map[uint64]bool{}
	for site := 0; site < 8; site++ {
		for c := uint(0); c < n; c++ {
			a := m.xorMask(Width64, site, c)
			b := m.xorMask(Width64, site, c)
			if a != b {
				t.Fatalf("multi-flip mask not deterministic at (%d,%d)", site, c)
			}
			if bits.OnesCount64(a) != 3 {
				t.Fatalf("multi-flip mask at (%d,%d) has %d bits, want 3", site, c, bits.OnesCount64(a))
			}
			if a&^field != 0 {
				t.Fatalf("multi-flip mask %#x escapes region field %#x", a, field)
			}
			if a&(1<<(start+c)) == 0 {
				t.Fatalf("multi-flip mask at (%d,%d) misses the primary bit", site, c)
			}
			seen[a] = true
		}
	}
	if len(seen) < 2 {
		t.Fatal("multi-flip masks are all identical; partner hash is degenerate")
	}
}

func TestFaultModelStringParseRoundTrip(t *testing.T) {
	models := []FaultModel{
		{},
		{Kind: FaultMultiFlip, K: 3},
		{Kind: FaultBurstFlip, K: 4},
		{Kind: FaultStuckAt0},
		{Kind: FaultStuckAt1},
		{Region: RegionExponent},
		{Region: RegionMantissa, Kind: FaultBurstFlip, K: 3},
		{Region: RegionSign, Kind: FaultStuckAt1},
	}
	for _, m := range models {
		got, err := ParseFaultModel(m.String())
		if err != nil {
			t.Fatalf("ParseFaultModel(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("round trip %q: got %+v, want %+v", m.String(), got, m)
		}
	}
	if m, err := ParseFaultModel(""); err != nil || !m.IsDefault() {
		t.Fatalf("ParseFaultModel(\"\") = %+v, %v; want default", m, err)
	}
	for _, bad := range []string{"flip", "multi", "multi0", "burst-1", "burstx", "nose:bitflip", "exponent:", "stuck2"} {
		if _, err := ParseFaultModel(bad); err == nil {
			t.Errorf("ParseFaultModel(%q) succeeded, want error", bad)
		}
	}
}

func TestFaultModelValidate(t *testing.T) {
	ok := []FaultModel{
		{},
		{Kind: FaultBurstFlip, K: 4},
		{Kind: FaultMultiFlip, Region: RegionExponent, K: 8},
		{Kind: FaultStuckAt1, Region: RegionSign},
	}
	for _, m := range ok {
		if err := m.Validate(Width32); err != nil {
			t.Errorf("Validate(%v, 32): %v", m, err)
		}
		if err := m.Validate(Width64); err != nil {
			t.Errorf("Validate(%v, 64): %v", m, err)
		}
	}
	bad := []struct {
		m     FaultModel
		width int
	}{
		{FaultModel{Kind: FaultMultiFlip, Region: RegionSign, K: 2}, Width64},
		{FaultModel{Kind: FaultMultiFlip, Region: RegionExponent, K: 9}, Width32},
		{FaultModel{Kind: FaultStuckAt0, K: 2}, Width64},
		{FaultModel{}, 16},
		{FaultModel{Kind: numFaultKinds}, Width64},
		{FaultModel{Region: numRegions}, Width64},
	}
	for _, tc := range bad {
		if err := tc.m.Validate(tc.width); err == nil {
			t.Errorf("Validate(%+v, %d) succeeded, want error", tc.m, tc.width)
		}
	}
}

// FuzzParseFaultModel feeds arbitrary strings to ParseFaultModel. It must
// return a model or an error, never panic; an accepted string's
// canonical form must re-parse to the same model, and validating the
// model at either width must not panic. The seed corpus in
// testdata/fuzz/FuzzParseFaultModel holds every kind, region and arity
// form plus near misses.
func FuzzParseFaultModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseFaultModel(s)
		if err != nil {
			return
		}
		back, err := ParseFaultModel(m.String())
		if err != nil {
			t.Fatalf("ParseFaultModel(%q) = %+v, whose String %q does not re-parse: %v", s, m, m.String(), err)
		}
		if back != m {
			t.Fatalf("ParseFaultModel(%q) = %+v, but its String %q re-parses to %+v", s, m, m.String(), back)
		}
		for _, w := range []int{Width32, Width64} {
			_ = m.Validate(w)
		}
	})
}
