package persist

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"ftb/internal/boundary"
	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

func TestGoldenRoundTrip(t *testing.T) {
	g := &trace.GoldenRun{
		Trace:  []float64{0, 1.5, -2.25, math.SmallestNonzeroFloat64, math.MaxFloat64},
		Output: []float64{3.14159, math.Copysign(0, -1)},
	}
	var buf bytes.Buffer
	if err := SaveGolden(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGolden(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) != len(g.Trace) || len(got.Output) != len(g.Output) {
		t.Fatal("shape mismatch")
	}
	for i := range g.Trace {
		if math.Float64bits(got.Trace[i]) != math.Float64bits(g.Trace[i]) {
			t.Errorf("trace[%d] not bit-exact", i)
		}
	}
	for i := range g.Output {
		if math.Float64bits(got.Output[i]) != math.Float64bits(g.Output[i]) {
			t.Errorf("output[%d] not bit-exact", i)
		}
	}
}

func TestGoldenEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveGolden(&buf, &trace.GoldenRun{}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGolden(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) != 0 || len(got.Output) != 0 {
		t.Error("empty round trip not empty")
	}
}

func TestGroundTruthRoundTrip(t *testing.T) {
	gt := &campaign.GroundTruth{
		SitesN: 3,
		BitsN:  4,
		Kinds: []outcome.Kind{
			outcome.Masked, outcome.SDC, outcome.Crash, outcome.Masked,
			outcome.SDC, outcome.SDC, outcome.Masked, outcome.Crash,
			outcome.Masked, outcome.Masked, outcome.Masked, outcome.SDC,
		},
	}
	var buf bytes.Buffer
	if err := SaveGroundTruth(&buf, gt); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGroundTruth(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SitesN != gt.SitesN || got.BitsN != gt.BitsN {
		t.Fatal("shape mismatch")
	}
	for i := range gt.Kinds {
		if got.Kinds[i] != gt.Kinds[i] {
			t.Errorf("kind[%d] = %v, want %v", i, got.Kinds[i], gt.Kinds[i])
		}
	}
}

func TestBoundaryRoundTrip(t *testing.T) {
	b := &boundary.Boundary{Thresholds: []float64{0, 1e-9, math.Inf(1), 42}}
	var buf bytes.Buffer
	if err := SaveBoundary(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBoundary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Thresholds {
		if math.Float64bits(got.Thresholds[i]) != math.Float64bits(b.Thresholds[i]) {
			t.Errorf("threshold[%d] mismatch", i)
		}
	}
}

func TestKnownRoundTrip(t *testing.T) {
	k := boundary.NewKnown(4, 8)
	k.Set(0, 3, outcome.Masked)
	k.Set(2, 7, outcome.SDC)
	k.Set(3, 0, outcome.Crash)
	var buf bytes.Buffer
	if err := SaveKnown(&buf, k); err != nil {
		t.Fatal(err)
	}
	got, err := LoadKnown(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sites() != 4 || got.BitsN() != 8 || got.Total() != 3 {
		t.Fatalf("shape/total wrong: %d %d %d", got.Sites(), got.BitsN(), got.Total())
	}
	for _, c := range []struct {
		site int
		bit  uint8
		want outcome.Kind
	}{{0, 3, outcome.Masked}, {2, 7, outcome.SDC}, {3, 0, outcome.Crash}} {
		if kind, ok := got.Get(c.site, c.bit); !ok || kind != c.want {
			t.Errorf("Get(%d,%d) = %v,%v", c.site, c.bit, kind, ok)
		}
	}
	if _, ok := got.Get(1, 1); ok {
		t.Error("unknown pair claims knowledge")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	b := &boundary.Boundary{Thresholds: []float64{1, 2, 3}}
	var buf bytes.Buffer
	if err := SaveBoundary(&buf, b); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, flip := range []int{7, len(data) / 2, len(data) - 1} {
		corrupted := append([]byte{}, data...)
		corrupted[flip] ^= 0x10
		if _, err := LoadBoundary(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("corruption at byte %d not detected", flip)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	gt := &campaign.GroundTruth{SitesN: 2, BitsN: 2, Kinds: make([]outcome.Kind, 4)}
	var buf bytes.Buffer
	if err := SaveGroundTruth(&buf, gt); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := LoadGroundTruth(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestWrongTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveBoundary(&buf, &boundary.Boundary{Thresholds: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGolden(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrWrongType) {
		t.Errorf("err = %v, want ErrWrongType", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := LoadBoundary(bytes.NewReader([]byte("NOPE00000000"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestGroundTruthRejectsBadKind(t *testing.T) {
	gt := &campaign.GroundTruth{SitesN: 1, BitsN: 1, Kinds: []outcome.Kind{outcome.Masked}}
	var buf bytes.Buffer
	if err := SaveGroundTruth(&buf, gt); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The single kind byte sits right before the 4-byte CRC; patch both.
	data[len(data)-5] = 99
	if _, err := LoadGroundTruth(bytes.NewReader(data)); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.ftb")
	b := &boundary.Boundary{Thresholds: []float64{4, 5, 6}}
	if err := SaveFile(path, b, SaveBoundary); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, LoadBoundary)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Thresholds) != 3 || got.Thresholds[1] != 5 {
		t.Errorf("loaded %v", got.Thresholds)
	}
	// Atomic save leaves no temp litter.
	entries, err := filepath.Glob(filepath.Join(dir, ".ftb-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("temp files left: %v", entries)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/x.ftb", LoadBoundary); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveFileTruncationDetected simulates a crash mid-write: every
// proper prefix of a saved artifact must fail to load (the trailing
// CRC-32, the explicit sizes, or the magic catches it), so a torn file
// can never be mistaken for a shorter valid one. SaveFile's temp+rename
// protocol makes a torn final file unreachable in practice; this pins
// the second line of defence.
func TestSaveFileTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.ftb")
	gt := &campaign.GroundTruth{SitesN: 7, BitsN: 3, WidthN: 64, Kinds: make([]outcome.Kind, 21)}
	for i := range gt.Kinds {
		gt.Kinds[i] = outcome.Kind(i % outcome.NumKinds)
	}
	if err := SaveFile(path, gt, SaveGroundTruth); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, LoadGroundTruth); err != nil {
		t.Fatalf("full file does not load: %v", err)
	}
	torn := filepath.Join(dir, "torn.ftb")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(torn, LoadGroundTruth); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(full))
		}
	}
}

// Property: boundary round trips are bit-exact for arbitrary floats.
func TestQuickBoundaryRoundTrip(t *testing.T) {
	f := func(raw []float64) bool {
		b := &boundary.Boundary{Thresholds: raw}
		var buf bytes.Buffer
		if err := SaveBoundary(&buf, b); err != nil {
			return false
		}
		got, err := LoadBoundary(&buf)
		if err != nil {
			return false
		}
		if len(got.Thresholds) != len(raw) {
			return false
		}
		for i := range raw {
			if math.Float64bits(got.Thresholds[i]) != math.Float64bits(raw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// forge builds a container with a valid checksum around an arbitrary
// header-field payload: the CRC passes, so only the decoders' own shape
// checks stand between the fields and an allocation.
func forge(tag byte, fields ...uint64) []byte {
	var buf bytes.Buffer
	cw := newCountingWriter(&buf)
	writeHeader(cw, tag)
	for _, v := range fields {
		writeUint64(cw, v)
	}
	finishWrite(cw)
	return buf.Bytes()
}

// TestLoadRejectsShapeOverflow pins the wrap-around of sites × bits: with
// sites = 2^63 and bits = 2 the product wraps to 0, which used to match
// an empty payload, so LoadKnown panicked allocating the table and
// LoadGroundTruth returned a negative site count.
func TestLoadRejectsShapeOverflow(t *testing.T) {
	const huge = 1 << 63
	gt := forge(tagGroundTruth, huge, 2, 64, 0) // sites, bits, width, kinds length
	if len(gt) != 42 {
		t.Fatalf("forged ground truth is %d bytes, want 42", len(gt))
	}
	if g, err := LoadGroundTruth(bytes.NewReader(gt)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadGroundTruth = %+v, %v; want ErrCorrupt", g, err)
	}
	known := forge(tagKnown, huge, 2, 0) // sites, bits, entries length
	if k, err := LoadKnown(bytes.NewReader(known)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadKnown = %v, %v; want ErrCorrupt", k, err)
	}
	// The bound is exact: the largest sites that fits still decodes when
	// the payload matches, here the empty table.
	if _, err := LoadGroundTruth(bytes.NewReader(forge(tagGroundTruth, 0, 2, 64, 0))); err != nil {
		t.Errorf("empty ground truth rejected: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to every decoder. Each must return an
// artifact or an error, never panic, and a decoded table's shape must
// agree with its payload. The seed corpus in testdata/fuzz/FuzzLoad holds
// one valid container per record type and the forged overflow shapes.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := LoadGolden(bytes.NewReader(data)); err == nil && g == nil {
			t.Fatal("LoadGolden: nil run without error")
		}
		if gt, err := LoadGroundTruth(bytes.NewReader(data)); err == nil {
			if gt.SitesN < 0 || gt.BitsN < 1 || len(gt.Kinds) != gt.SitesN*gt.BitsN {
				t.Fatalf("LoadGroundTruth: shape %dx%d with %d kinds", gt.SitesN, gt.BitsN, len(gt.Kinds))
			}
		}
		if b, err := LoadBoundary(bytes.NewReader(data)); err == nil && b == nil {
			t.Fatal("LoadBoundary: nil boundary without error")
		}
		if k, err := LoadKnown(bytes.NewReader(data)); err == nil && (k.Sites() < 0 || k.BitsN() < 1) {
			t.Fatalf("LoadKnown: shape %dx%d", k.Sites(), k.BitsN())
		}
	})
}

func TestGroundTruthWidthRoundTrip(t *testing.T) {
	gt := &campaign.GroundTruth{SitesN: 2, BitsN: 32, WidthN: 32, Kinds: make([]outcome.Kind, 64)}
	var buf bytes.Buffer
	if err := SaveGroundTruth(&buf, gt); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGroundTruth(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width() != 32 {
		t.Errorf("width = %d, want 32", got.Width())
	}
}

// Property: random single-byte corruption anywhere in any artifact is
// always detected (error returned), never a crash or silent acceptance of
// different content.
func TestQuickCorruptionAlwaysDetected(t *testing.T) {
	artifacts := map[string][]byte{}
	{
		var buf bytes.Buffer
		if err := SaveBoundary(&buf, &boundary.Boundary{Thresholds: []float64{1, 2, 3, 4.5}}); err != nil {
			t.Fatal(err)
		}
		artifacts["boundary"] = append([]byte{}, buf.Bytes()...)
	}
	{
		var buf bytes.Buffer
		gt := &campaign.GroundTruth{SitesN: 3, BitsN: 4, WidthN: 64, Kinds: make([]outcome.Kind, 12)}
		if err := SaveGroundTruth(&buf, gt); err != nil {
			t.Fatal(err)
		}
		artifacts["groundtruth"] = append([]byte{}, buf.Bytes()...)
	}
	{
		var buf bytes.Buffer
		if err := SaveGolden(&buf, &trace.GoldenRun{Trace: []float64{1, 2}, Output: []float64{3}}); err != nil {
			t.Fatal(err)
		}
		artifacts["golden"] = append([]byte{}, buf.Bytes()...)
	}
	load := map[string]func([]byte) error{
		"boundary":    func(d []byte) error { _, err := LoadBoundary(bytes.NewReader(d)); return err },
		"groundtruth": func(d []byte) error { _, err := LoadGroundTruth(bytes.NewReader(d)); return err },
		"golden":      func(d []byte) error { _, err := LoadGolden(bytes.NewReader(d)); return err },
	}
	f := func(pos uint16, mask uint8) bool {
		if mask == 0 {
			return true // no-op flip
		}
		for name, data := range artifacts {
			corrupted := append([]byte{}, data...)
			corrupted[int(pos)%len(corrupted)] ^= mask
			if err := load[name](corrupted); err == nil {
				t.Logf("%s: corruption at %d mask %#x accepted", name, int(pos)%len(corrupted), mask)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
