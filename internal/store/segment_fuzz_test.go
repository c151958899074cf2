package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanSegment: openSegment (and the scanSegment pass behind it)
// rejects arbitrary segment bytes with an error, never a panic, for any
// committed length and key domain. A segment it accepts is whole: its
// validated size covers the committed region, lies within the file, and
// spans only CRC-clean in-domain records. Seed corpus:
// testdata/fuzz/FuzzScanSegment (valid, torn, CRC-flipped, out-of-range
// key).
func FuzzScanSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, committed int64, experiments uint32) {
		dir := t.TempDir()
		ms := manifestSeg{seq: 1, committed: committed}
		if err := os.WriteFile(filepath.Join(dir, segFileName(ms.seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := openSegment(dir, ms, int(experiments))
		if err != nil {
			return
		}
		defer seg.f.Close()
		if seg.size < committed || seg.size > int64(len(data)) || seg.size < segHeaderSize {
			t.Fatalf("accepted size %d outside [max(committed %d, header), file %d]", seg.size, committed, len(data))
		}
		if n := (seg.size - segHeaderSize) / recordSize; seg.size != segHeaderSize+n*recordSize || int64(seg.records) != n {
			t.Fatalf("accepted size %d holds %d records, counted %d", seg.size, n, seg.records)
		}
		for off := int64(segHeaderSize); off < seg.size; off += recordSize {
			if _, _, ok := parseRecord(data[off:off+recordSize], int(experiments)); !ok {
				t.Fatalf("accepted segment has an invalid record at offset %d", off)
			}
		}
	})
}
