package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/persist"
	"ftb/internal/telemetry"
)

func testIdentity(sites, bits int) Identity {
	return Identity{Program: "test", Sites: sites, Bits: bits, Width: 64, Tol: 1e-9, GoldenCRC: 0x1234abcd}
}

// kindsFor derives a deterministic outcome pattern over [start, start+n).
func kindsFor(start, n, salt int) []outcome.Kind {
	ks := make([]outcome.Kind, n)
	for i := range ks {
		ks[i] = outcome.Kind((start + i + salt) % outcome.NumKinds)
	}
	return ks
}

func openTest(t *testing.T, dir string, id Identity) *Campaign {
	t.Helper()
	c, err := openCampaign(dir, id, nil)
	if err != nil {
		t.Fatalf("openCampaign: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAppendGetScanRoundTrip(t *testing.T) {
	id := testIdentity(32, 4)
	c := openTest(t, filepath.Join(t.TempDir(), "c"), id)
	want := kindsFor(0, id.experiments(), 1)
	if err := c.Append(0, want); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for site := 0; site < id.Sites; site++ {
		for bit := 0; bit < id.Bits; bit++ {
			k, ok, err := c.Get(site, bit)
			if err != nil || !ok {
				t.Fatalf("Get(%d, %d): ok=%v err=%v", site, bit, ok, err)
			}
			if k != want[site*id.Bits+bit] {
				t.Fatalf("Get(%d, %d) = %v, want %v", site, bit, k, want[site*id.Bits+bit])
			}
		}
	}
	kinds, set, err := c.Scan(8, 40)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	for i := range kinds {
		if !set[i] || kinds[i] != want[8+i] {
			t.Fatalf("Scan[%d]: set=%v kind=%v want %v", i, set[i], kinds[i], want[8+i])
		}
	}
	gt, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if gt.SitesN != id.Sites || gt.BitsN != id.Bits || gt.WidthN != id.Width {
		t.Fatalf("Materialize shape %dx%d w%d", gt.SitesN, gt.BitsN, gt.WidthN)
	}
	for i, k := range gt.Kinds {
		if k != want[i] {
			t.Fatalf("Materialize kind[%d] = %v, want %v", i, k, want[i])
		}
	}
}

func TestGetMissingAndPartialCoverage(t *testing.T) {
	id := testIdentity(16, 4)
	c := openTest(t, filepath.Join(t.TempDir(), "c"), id)
	if _, ok, err := c.Get(3, 2); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if err := c.Append(8, kindsFor(8, 16, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := c.Materialize(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Materialize on partial store: %v, want ErrIncomplete", err)
	}
	rs, err := c.Completed()
	if err != nil {
		t.Fatalf("Completed: %v", err)
	}
	if len(rs) != 1 || rs[0] != (campaign.Range{Lo: 8, Hi: 24}) {
		t.Fatalf("Completed = %v, want [{8 24}]", rs)
	}
	if err := c.Append(0, kindsFor(0, 8, 0)); err != nil {
		t.Fatalf("Append prefix: %v", err)
	}
	// Adjacent appends coalesce into one maximal range.
	if rs, err := c.Completed(); err != nil || len(rs) != 1 || rs[0] != (campaign.Range{Lo: 0, Hi: 24}) {
		t.Fatalf("Completed = %v, %v, want [{0 24}]", rs, err)
	}
}

func TestLastWriterWins(t *testing.T) {
	id := testIdentity(16, 4)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	c.rotateBytes = 256 // force rotation so overwrites land in later segments
	if err := c.Append(0, kindsFor(0, 64, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := c.Append(10, kindsFor(10, 30, 1)); err != nil {
		t.Fatalf("Append overwrite: %v", err)
	}
	if err := c.Append(20, kindsFor(20, 10, 2)); err != nil {
		t.Fatalf("Append overwrite 2: %v", err)
	}
	check := func(c *Campaign) {
		t.Helper()
		want := func(i int) outcome.Kind {
			switch {
			case i >= 20 && i < 30:
				return outcome.Kind((i + 2) % outcome.NumKinds)
			case i >= 10 && i < 40:
				return outcome.Kind((i + 1) % outcome.NumKinds)
			default:
				return outcome.Kind(i % outcome.NumKinds)
			}
		}
		for i := 0; i < 64; i++ {
			k, ok, err := c.Get(i/id.Bits, i%id.Bits)
			if err != nil || !ok {
				t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
			}
			if k != want(i) {
				t.Fatalf("Get(%d) = %v, want %v", i, k, want(i))
			}
		}
		gt, err := c.Materialize()
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		for i, k := range gt.Kinds {
			if k != want(i) {
				t.Fatalf("Materialize[%d] = %v, want %v", i, k, want(i))
			}
		}
	}
	check(c)
	// The same answers must survive a reopen and a compaction.
	c.Close()
	c2 := openTest(t, dir, id)
	check(c2)
	if _, err := c2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check(c2)
}

func TestReopenPreservesRecordsAndSegments(t *testing.T) {
	id := testIdentity(64, 2)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	c.rotateBytes = 300
	for s := 0; s < 4; s++ {
		if err := c.Append(s*32, kindsFor(s*32, 32, 3)); err != nil {
			t.Fatalf("Append %d: %v", s, err)
		}
	}
	segs, bytes0 := c.SegmentCount(), c.Bytes()
	if segs < 2 {
		t.Fatalf("expected rotation to produce >= 2 segments, got %d", segs)
	}
	c.Close()
	c2 := openTest(t, dir, id)
	if c2.SegmentCount() != segs || c2.Bytes() != bytes0 {
		t.Fatalf("reopen: %d segments %d bytes, want %d / %d", c2.SegmentCount(), c2.Bytes(), segs, bytes0)
	}
	gt, err := c2.Materialize()
	if err != nil {
		t.Fatalf("Materialize after reopen: %v", err)
	}
	for i, k := range gt.Kinds {
		if k != outcome.Kind((i+3)%outcome.NumKinds) {
			t.Fatalf("kind[%d] = %v after reopen", i, k)
		}
	}
}

func TestIdentityMismatchTyped(t *testing.T) {
	root := t.TempDir()
	db, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id1 := testIdentity(16, 4)
	c, err := db.Campaign(id1)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if err := c.Append(0, kindsFor(0, 16, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	db.Close()
	// Masquerade id1's directory as id2's: the manifest inside still
	// says id1, which must surface as a typed identity mismatch.
	id2 := testIdentity(16, 4)
	id2.GoldenCRC = 0xfeedface
	if err := os.Rename(filepath.Join(root, id1.DirName()), filepath.Join(root, id2.DirName())); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Campaign(id2); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("Campaign with mismatched manifest: %v, want ErrIdentityMismatch", err)
	}
}

func TestCorruptCommittedRegionDetected(t *testing.T) {
	id := testIdentity(32, 4)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	if err := c.Append(0, kindsFor(0, id.experiments(), 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	c.Close()
	path := filepath.Join(dir, segFileName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderSize+5*recordSize+2] ^= 0x40 // flip one bit inside a committed record
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openCampaign(dir, id, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt committed record: %v, want ErrCorrupt", err)
	}
}

func TestTruncationIntoCommittedRegionDetected(t *testing.T) {
	id := testIdentity(32, 4)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	if err := c.Append(0, kindsFor(0, id.experiments(), 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	c.Close()
	path := filepath.Join(dir, segFileName(1))
	// Record-aligned truncation inside the committed region: the data is
	// intact as far as it goes, but the manifest promised more.
	if err := os.Truncate(path, segHeaderSize+10*recordSize); err != nil {
		t.Fatal(err)
	}
	if _, err := openCampaign(dir, id, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with truncated committed region: %v, want ErrCorrupt", err)
	}
}

func TestTornTailBeyondCommittedIsAdopted(t *testing.T) {
	id := testIdentity(32, 4)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	if err := c.Append(0, kindsFor(0, 64, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	c.Close()
	// Simulate an append the crash interrupted after the segment write
	// but before the manifest commit: valid frames plus a torn final one.
	path := filepath.Join(dir, segFileName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var frame [recordSize]byte
	putRecord(frame[:], 64, outcome.Crash)
	f.Write(frame[:])
	putRecord(frame[:], 65, outcome.SDC)
	f.Write(frame[:7]) // torn mid-frame
	f.Close()
	c2 := openTest(t, dir, id)
	if k, ok, err := c2.Get(16, 0); err != nil || !ok || k != outcome.Crash {
		t.Fatalf("Get(adopted tail record) = %v ok=%v err=%v, want crash", k, ok, err)
	}
	if _, ok, err := c2.Get(16, 1); err != nil || ok {
		t.Fatalf("torn frame must not surface: ok=%v err=%v", ok, err)
	}
	// The next append commits the adopted tail and everything stays readable.
	if err := c2.Append(66, kindsFor(66, 2, 0)); err != nil {
		t.Fatalf("Append after adoption: %v", err)
	}
	c2.Close()
	c3 := openTest(t, dir, id)
	if k, ok, _ := c3.Get(16, 0); !ok || k != outcome.Crash {
		t.Fatalf("adopted record lost after recommit: %v ok=%v", k, ok)
	}
}

func TestCompactionPreservesQueriesAndShrinks(t *testing.T) {
	id := testIdentity(64, 4)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	c.rotateBytes = 512
	rng := rand.New(rand.NewSource(7))
	// Overlapping-segment fixture: many random ranges re-appended so
	// most records are superseded duplicates spread over many segments.
	for i := 0; i < 40; i++ {
		lo := rng.Intn(id.experiments() - 1)
		n := 1 + rng.Intn(id.experiments()-lo)
		if err := c.Append(lo, kindsFor(lo, n, i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := c.Append(0, kindsFor(0, id.experiments(), 99)); err != nil {
		t.Fatalf("final full Append: %v", err)
	}
	before := struct {
		segs  int
		bytes int64
		gt    *campaign.GroundTruth
		sum   Summary
		slice []outcome.Counts
	}{segs: c.SegmentCount(), bytes: c.Bytes()}
	var err error
	if before.gt, err = c.Materialize(); err != nil {
		t.Fatalf("Materialize before: %v", err)
	}
	if before.sum, err = c.Summary(0, id.Sites); err != nil {
		t.Fatalf("Summary before: %v", err)
	}
	if before.slice, _, err = c.SiteSlice(10, 30); err != nil {
		t.Fatalf("SiteSlice before: %v", err)
	}
	if before.segs < 3 {
		t.Fatalf("fixture built only %d segments", before.segs)
	}

	stats, err := c.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.SegmentsAfter >= stats.SegmentsBefore || stats.BytesAfter >= stats.BytesBefore {
		t.Fatalf("compaction did not shrink: %+v", stats)
	}
	if c.SegmentCount() != 1 || c.Bytes() != stats.BytesAfter {
		t.Fatalf("post-compaction state: %d segments, %d bytes", c.SegmentCount(), c.Bytes())
	}

	// Property: every query answers identically after compaction.
	after, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize after: %v", err)
	}
	var b1, b2 bytes.Buffer
	if err := persist.SaveGroundTruth(&b1, before.gt); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveGroundTruth(&b2, after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("materialized ground truth differs across compaction")
	}
	sum, err := c.Summary(0, id.Sites)
	if err != nil || sum != before.sum {
		t.Fatalf("Summary after = %+v (err %v), want %+v", sum, err, before.sum)
	}
	slice, _, err := c.SiteSlice(10, 30)
	if err != nil {
		t.Fatalf("SiteSlice after: %v", err)
	}
	for i := range slice {
		if slice[i] != before.slice[i] {
			t.Fatalf("SiteSlice[%d] = %v, want %v", i, slice[i], before.slice[i])
		}
	}
	// And the compacted state survives a reopen.
	c.Close()
	c2 := openTest(t, dir, id)
	gt2, err := c2.Materialize()
	if err != nil {
		t.Fatalf("Materialize after reopen: %v", err)
	}
	var b3 bytes.Buffer
	if err := persist.SaveGroundTruth(&b3, gt2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("compacted store reopened to a different ground truth")
	}
}

func TestAutoCompactionBoundsSegments(t *testing.T) {
	id := testIdentity(16, 4)
	c := openTest(t, filepath.Join(t.TempDir(), "c"), id)
	c.rotateBytes = 1 // every append rotates
	c.compactAfter = 4
	for i := 0; i < 32; i++ {
		if err := c.Append(0, kindsFor(0, id.experiments(), i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if got := c.SegmentCount(); got > 5 {
			t.Fatalf("append %d: %d segments despite compactAfter=4", i, got)
		}
	}
	gt, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for i, k := range gt.Kinds {
		if k != outcome.Kind((i+31)%outcome.NumKinds) {
			t.Fatalf("kind[%d] = %v, want last append's value", i, k)
		}
	}
}

func TestImportGroundTruthAndByteIdentity(t *testing.T) {
	id := testIdentity(48, 3)
	c := openTest(t, filepath.Join(t.TempDir(), "c"), id)
	gt := &campaign.GroundTruth{SitesN: id.Sites, BitsN: id.Bits, WidthN: id.Width, Kinds: kindsFor(0, id.experiments(), 5)}
	if err := c.ImportGroundTruth(gt); err != nil {
		t.Fatalf("ImportGroundTruth: %v", err)
	}
	got, err := c.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	var b1, b2 bytes.Buffer
	if err := persist.SaveGroundTruth(&b1, gt); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveGroundTruth(&b2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("imported ground truth did not round-trip byte-identically")
	}
	bad := &campaign.GroundTruth{SitesN: id.Sites + 1, BitsN: id.Bits, WidthN: id.Width,
		Kinds: make([]outcome.Kind, (id.Sites+1)*id.Bits)}
	if err := c.ImportGroundTruth(bad); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("mismatched import: %v, want ErrIdentityMismatch", err)
	}
}

func TestDBCampaignsAndLookup(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "root"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Lookup(""); err == nil {
		t.Fatal("Lookup on empty root must fail")
	}
	idA := testIdentity(16, 4)
	idA.Program = "alpha"
	idB := testIdentity(8, 2)
	idB.Program = "beta"
	ca, err := db.Campaign(idA)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Append(0, kindsFor(0, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Campaign(idB); err != nil {
		t.Fatal(err)
	}
	infos, err := db.Campaigns()
	if err != nil {
		t.Fatalf("Campaigns: %v", err)
	}
	if len(infos) != 2 {
		t.Fatalf("Campaigns = %d entries, want 2", len(infos))
	}
	for _, in := range infos {
		if in.Identity.Program == "alpha" {
			if in.Records != 10 || in.Covered != 10 || in.Total != 64 {
				t.Fatalf("alpha info: %+v", in)
			}
		}
	}
	if _, err := db.Lookup(""); err == nil {
		t.Fatal("ambiguous empty Lookup must fail with two campaigns")
	}
	c, err := db.Lookup("beta")
	if err != nil || c.ID().Program != "beta" {
		t.Fatalf("Lookup(beta): %v", err)
	}
	c, err = db.Lookup(idA.DirName())
	if err != nil || c.ID().Program != "alpha" {
		t.Fatalf("Lookup(by dir): %v", err)
	}
	if _, err := db.Lookup("gamma"); err == nil {
		t.Fatal("Lookup(gamma) must fail")
	}
}

func TestStoreTelemetryCounters(t *testing.T) {
	col := telemetry.New()
	db, err := Open(filepath.Join(t.TempDir(), "root"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetCollector(col)
	id := testIdentity(16, 4)
	c, err := db.Campaign(id)
	if err != nil {
		t.Fatal(err)
	}
	c.rotateBytes = 1
	if err := c.Append(0, kindsFor(0, 64, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, kindsFor(0, 64, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Scan(0, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot().Store
	if s.Appends != 2 || s.RecordsAppended != 128 {
		t.Fatalf("append counters: %+v", s)
	}
	if s.Lookups != 1 || s.Scans != 1 || s.RecordsRead == 0 {
		t.Fatalf("read counters: %+v", s)
	}
	if s.Compactions != 1 || s.SegmentsCompacted != 2 || s.BytesReclaimed <= 0 {
		t.Fatalf("compaction counters: %+v", s)
	}
	// Snapshot merge and collector absorb must carry the store counts.
	var merged telemetry.Snapshot
	if err := merged.Merge(col.Snapshot(), "w1"); err != nil {
		t.Fatal(err)
	}
	if merged.Store != s {
		t.Fatalf("Merge dropped store counts: %+v != %+v", merged.Store, s)
	}
	col2 := telemetry.New()
	if err := col2.Absorb(merged); err != nil {
		t.Fatal(err)
	}
	if got := col2.Snapshot().Store; got != s {
		t.Fatalf("Absorb dropped store counts: %+v != %+v", got, s)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	id := testIdentity(16, 4)
	dir := filepath.Join(t.TempDir(), "c")
	c := openTest(t, dir, id)
	if err := c.Append(0, kindsFor(0, 16, 0)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[10] ^= 0x01; return b },       // payload bit flip
		func(b []byte) []byte { return b[:len(b)-3] },           // truncation
		func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, // CRC flip
	} {
		bad := mutate(append([]byte(nil), b...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openCampaign(dir, id, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with mutated manifest: %v, want ErrCorrupt", err)
		}
	}
}
