// Package persist serializes the expensive artifacts of a resiliency
// analysis — golden runs, exhaustive ground truths, inferred boundaries,
// and sampled-outcome tables — so campaigns can be run once and analyzed
// many times.
//
// The format is a small versioned binary container: a 4-byte magic, a
// format version, a record-type byte, the payload with explicit
// little-endian sizes, and a trailing CRC-32 of everything before it.
// Floats are stored as IEEE-754 bit patterns, so round-trips are exact
// (including NaN payloads, negative zero, and infinities).
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"syscall"

	"ftb/internal/boundary"
	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/trace"
)

var magic = [4]byte{'F', 'T', 'B', '1'}

const version = 1

// Record type tags.
const (
	tagGolden      = 0x01
	tagGroundTruth = 0x02
	tagBoundary    = 0x03
	tagKnown       = 0x04
)

// ErrCorrupt is returned when a file fails its structural or checksum
// validation.
var ErrCorrupt = errors.New("persist: corrupt or truncated file")

// ErrWrongType is returned when a file holds a different record type
// than the loader expects.
var ErrWrongType = errors.New("persist: unexpected record type")

type countingWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func newCountingWriter(w io.Writer) *countingWriter {
	return &countingWriter{w: w, crc: crc32.NewIEEE()}
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	return n, err
}

func writeHeader(w io.Writer, tag byte) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, []byte{version, tag})
}

func readHeader(r io.Reader, wantTag byte) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, m[:])
	}
	var vt [2]byte
	if _, err := io.ReadFull(r, vt[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if vt[0] != version {
		return fmt.Errorf("persist: unsupported version %d", vt[0])
	}
	if vt[1] != wantTag {
		return fmt.Errorf("%w: got tag %#x, want %#x", ErrWrongType, vt[1], wantTag)
	}
	return nil
}

func writeUint64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readUint64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func writeFloats(w io.Writer, xs []float64) error {
	if err := writeUint64(w, uint64(len(xs))); err != nil {
		return err
	}
	buf := make([]byte, 8*1024)
	for off := 0; off < len(xs); {
		n := min(len(xs)-off, len(buf)/8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(xs[off+i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// maxSliceLen caps decoded slice lengths to keep a corrupt length field
// from attempting a giant allocation.
const maxSliceLen = 1 << 31

func readFloats(r io.Reader) ([]float64, error) {
	n, err := readUint64(r)
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, fmt.Errorf("%w: slice length %d", ErrCorrupt, n)
	}
	// Grow the slice only as data actually arrives: a corrupted length
	// field must fail fast instead of zeroing gigabytes up front.
	xs := make([]float64, 0, min(int(n), 8*1024))
	buf := make([]byte, 8*1024)
	for remaining := int(n); remaining > 0; {
		cnt := min(remaining, len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*cnt]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		for i := 0; i < cnt; i++ {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		remaining -= cnt
	}
	return xs, nil
}

func writeBytes(w io.Writer, bs []byte) error {
	if err := writeUint64(w, uint64(len(bs))); err != nil {
		return err
	}
	_, err := w.Write(bs)
	return err
}

func readBytes(r io.Reader) ([]byte, error) {
	n, err := readUint64(r)
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, fmt.Errorf("%w: slice length %d", ErrCorrupt, n)
	}
	const chunk = 1 << 20
	bs := make([]byte, 0, min(int(n), chunk))
	for remaining := int(n); remaining > 0; {
		c := min(remaining, chunk)
		start := len(bs)
		bs = append(bs, make([]byte, c)...)
		if _, err := io.ReadFull(r, bs[start:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		remaining -= c
	}
	return bs, nil
}

func finishWrite(cw *countingWriter) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], cw.crc.Sum32())
	_, err := cw.w.Write(buf[:])
	return err
}

// crcReader mirrors countingWriter for validation on load.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, crc: crc32.NewIEEE()}
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

func finishRead(cr *crcReader) error {
	want := cr.crc.Sum32() // checksum of everything consumed so far
	var buf [4]byte
	if _, err := io.ReadFull(cr.r, buf[:]); err != nil { // read raw, not through crc
		return fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(buf[:]) != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}

// shapeFits reports whether a decoded sites × bitsN table, bitsN in
// [1, maxBits], holds exactly n entries. sites is bounded before the
// multiply, so a forged shape cannot wrap the product onto n.
func shapeFits(sites, bitsN, maxBits uint64, n int) bool {
	return bitsN >= 1 && bitsN <= maxBits && sites <= maxSliceLen/bitsN && sites*bitsN == uint64(n)
}

// SaveGolden writes a golden run.
func SaveGolden(w io.Writer, g *trace.GoldenRun) error {
	cw := newCountingWriter(w)
	if err := writeHeader(cw, tagGolden); err != nil {
		return err
	}
	if err := writeFloats(cw, g.Trace); err != nil {
		return err
	}
	if err := writeFloats(cw, g.Output); err != nil {
		return err
	}
	return finishWrite(cw)
}

// LoadGolden reads a golden run.
func LoadGolden(r io.Reader) (*trace.GoldenRun, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagGolden); err != nil {
		return nil, err
	}
	tr, err := readFloats(cr)
	if err != nil {
		return nil, err
	}
	out, err := readFloats(cr)
	if err != nil {
		return nil, err
	}
	if err := finishRead(cr); err != nil {
		return nil, err
	}
	return &trace.GoldenRun{Trace: tr, Output: out}, nil
}

// SaveGroundTruth writes an exhaustive campaign result.
func SaveGroundTruth(w io.Writer, gt *campaign.GroundTruth) error {
	cw := newCountingWriter(w)
	if err := writeHeader(cw, tagGroundTruth); err != nil {
		return err
	}
	return writeGroundTruthBody(cw, gt)
}

func writeGroundTruthBody(cw *countingWriter, gt *campaign.GroundTruth) error {
	if err := writeUint64(cw, uint64(gt.SitesN)); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(gt.BitsN)); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(gt.Width())); err != nil {
		return err
	}
	kinds := make([]byte, len(gt.Kinds))
	for i, k := range gt.Kinds {
		kinds[i] = byte(k)
	}
	if err := writeBytes(cw, kinds); err != nil {
		return err
	}
	return finishWrite(cw)
}

// LoadGroundTruth reads an exhaustive campaign result.
func LoadGroundTruth(r io.Reader) (*campaign.GroundTruth, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagGroundTruth); err != nil {
		return nil, err
	}
	gt, err := readGroundTruthBody(cr)
	if err != nil {
		return nil, err
	}
	if err := finishRead(cr); err != nil {
		return nil, err
	}
	return gt, nil
}

func readGroundTruthBody(cr *crcReader) (*campaign.GroundTruth, error) {
	sites, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	bitsN, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	width, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	raw, err := readBytes(cr)
	if err != nil {
		return nil, err
	}
	if width != 32 && width != 64 {
		return nil, fmt.Errorf("%w: ground truth width %d", ErrCorrupt, width)
	}
	if !shapeFits(sites, bitsN, width, len(raw)) {
		return nil, fmt.Errorf("%w: ground truth shape %dx%d with %d kinds", ErrCorrupt, sites, bitsN, len(raw))
	}
	kinds := make([]outcome.Kind, len(raw))
	for i, b := range raw {
		if int(b) >= outcome.NumKinds {
			return nil, fmt.Errorf("%w: invalid outcome kind %d", ErrCorrupt, b)
		}
		kinds[i] = outcome.Kind(b)
	}
	return &campaign.GroundTruth{SitesN: int(sites), BitsN: int(bitsN), WidthN: int(width), Kinds: kinds}, nil
}

// SaveBoundary writes a fault tolerance boundary.
func SaveBoundary(w io.Writer, b *boundary.Boundary) error {
	cw := newCountingWriter(w)
	if err := writeHeader(cw, tagBoundary); err != nil {
		return err
	}
	if err := writeFloats(cw, b.Thresholds); err != nil {
		return err
	}
	return finishWrite(cw)
}

// LoadBoundary reads a fault tolerance boundary.
func LoadBoundary(r io.Reader) (*boundary.Boundary, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagBoundary); err != nil {
		return nil, err
	}
	th, err := readFloats(cr)
	if err != nil {
		return nil, err
	}
	if err := finishRead(cr); err != nil {
		return nil, err
	}
	return &boundary.Boundary{Thresholds: th}, nil
}

// SaveKnown writes a sampled-outcome table.
func SaveKnown(w io.Writer, k *boundary.Known) error {
	cw := newCountingWriter(w)
	if err := writeHeader(cw, tagKnown); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(k.Sites())); err != nil {
		return err
	}
	if err := writeUint64(cw, uint64(k.BitsN())); err != nil {
		return err
	}
	// Encode as (kind+1 | 0 for unknown) bytes, matching the in-memory
	// layout semantics without exposing it.
	raw := make([]byte, k.Sites()*k.BitsN())
	for site := 0; site < k.Sites(); site++ {
		for bit := 0; bit < k.BitsN(); bit++ {
			if kind, ok := k.Get(site, uint8(bit)); ok {
				raw[site*k.BitsN()+bit] = byte(kind) + 1
			}
		}
	}
	if err := writeBytes(cw, raw); err != nil {
		return err
	}
	return finishWrite(cw)
}

// LoadKnown reads a sampled-outcome table.
func LoadKnown(r io.Reader) (*boundary.Known, error) {
	cr := newCRCReader(r)
	if err := readHeader(cr, tagKnown); err != nil {
		return nil, err
	}
	sites, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	bitsN, err := readUint64(cr)
	if err != nil {
		return nil, err
	}
	raw, err := readBytes(cr)
	if err != nil {
		return nil, err
	}
	if err := finishRead(cr); err != nil {
		return nil, err
	}
	if !shapeFits(sites, bitsN, 64, len(raw)) {
		return nil, fmt.Errorf("%w: known table shape %dx%d with %d entries", ErrCorrupt, sites, bitsN, len(raw))
	}
	k := boundary.NewKnown(int(sites), int(bitsN))
	for i, b := range raw {
		if b == 0 {
			continue
		}
		if int(b-1) >= outcome.NumKinds {
			return nil, fmt.Errorf("%w: invalid outcome kind %d", ErrCorrupt, b-1)
		}
		k.Set(i/int(bitsN), uint8(i%int(bitsN)), outcome.Kind(b-1))
	}
	return k, nil
}

// SaveFile writes an artifact to path using save, atomically and
// durably: the bytes are written to a temporary file in the same
// directory, fsynced, renamed over path, and the directory entry is
// fsynced in turn. A crash at any point leaves either the old artifact
// or the new one — never a torn file, and never a rename that the
// filesystem forgets.
func SaveFile[T any](path string, v T, save func(io.Writer, T) error) error {
	tmp, err := os.CreateTemp(dirOf(path), ".ftb-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := save(bw, v); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dirOf(path))
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Filesystems that cannot sync directories (the error surfaces as
// EINVAL/ENOTSUP on some network and FUSE mounts) are forgiven: the
// rename itself already succeeded.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) && !errors.Is(err, syscall.ENOTTY) && !errors.Is(err, syscall.EBADF) {
		return err
	}
	return nil
}

// LoadFile reads an artifact from path using load.
func LoadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	return load(bufio.NewReader(f))
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
