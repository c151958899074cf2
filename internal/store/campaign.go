package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/telemetry"
)

// Segment files hold the records. Each starts with a 20-byte header —
// magic, format version, the segment's sequence number, a header CRC —
// followed by fixed-width 12-byte records:
//
//	offset  size  field
//	0       4     key   = site*Bits + bit, little-endian
//	4       1     kind  (outcome.Kind)
//	5       3     reserved, zero
//	8       4     CRC-32 (IEEE) of bytes [0, 8)
//
// Fixed width keeps every record boundary computable from the file
// offset alone: a reopen can classify any byte range as whole valid
// frames or a torn tail without a scan index, and the in-memory block
// index is just (offset, count, key-min, key-max) per blockRecords run.
const (
	segMagic      = "FTBS"
	segVersion    = 1
	segHeaderSize = 20
	recordSize    = 12

	// blockRecords is the sparse-index granularity: one (min, max) key
	// fence per this many records. Point lookups read at most one block
	// per consulted segment.
	blockRecords = 512

	// defaultRotateBytes caps the active segment; appends past it open a
	// fresh segment so compaction and torn-tail scans stay bounded.
	defaultRotateBytes = 4 << 20
	// defaultCompactAfter triggers an automatic compaction when a
	// campaign accumulates this many live segments.
	defaultCompactAfter = 16
)

// Summary aggregates the stored outcomes of an experiment range.
type Summary struct {
	Counts  outcome.Counts // tallies over stored experiments
	Missing int            // experiments in the range with no record
}

// CompactStats reports what one compaction folded away.
type CompactStats struct {
	SegmentsBefore int
	SegmentsAfter  int
	BytesBefore    int64
	BytesAfter     int64
}

type blockMeta struct {
	off    int64 // file offset of the block's first record
	n      int   // records in the block
	minKey uint32
	maxKey uint32
}

type segment struct {
	seq     uint64
	f       *os.File
	size    int64 // header + validated records; the manifest commits up to here
	records int
	blocks  []blockMeta
}

// noteRecord extends the block index for one appended/scanned record.
// Records are contiguous, so the next record's offset is derivable from
// the running count.
func (s *segment) noteRecord(key uint32) {
	if n := len(s.blocks); n > 0 && s.blocks[n-1].n < blockRecords {
		b := &s.blocks[n-1]
		b.n++
		if key < b.minKey {
			b.minKey = key
		}
		if key > b.maxKey {
			b.maxKey = key
		}
	} else {
		s.blocks = append(s.blocks, blockMeta{
			off: segHeaderSize + int64(s.records)*recordSize, n: 1, minKey: key, maxKey: key,
		})
	}
	s.records++
}

func segFileName(seq uint64) string { return fmt.Sprintf("seg-%06d.log", seq) }

func encodeSegHeader(seq uint64) []byte {
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[:16]))
	return hdr
}

func putRecord(dst []byte, key uint32, k outcome.Kind) {
	binary.LittleEndian.PutUint32(dst[0:4], key)
	dst[4] = byte(k)
	dst[5], dst[6], dst[7] = 0, 0, 0
	binary.LittleEndian.PutUint32(dst[8:12], crc32.ChecksumIEEE(dst[:8]))
}

// parseRecord validates one frame against its CRC and the campaign's key
// and kind domains.
func parseRecord(b []byte, maxKey int) (key uint32, k outcome.Kind, ok bool) {
	if binary.LittleEndian.Uint32(b[8:12]) != crc32.ChecksumIEEE(b[:8]) {
		return 0, 0, false
	}
	key = binary.LittleEndian.Uint32(b[0:4])
	k = outcome.Kind(b[4])
	if b[5] != 0 || b[6] != 0 || b[7] != 0 || int(k) >= outcome.NumKinds || int64(key) >= int64(maxKey) {
		return 0, 0, false
	}
	return key, k, true
}

// Campaign is one campaign's log: the live segments plus their block
// index. All methods are safe for concurrent use; writes are serialized,
// reads run concurrently via ReadAt on the shared file handles.
type Campaign struct {
	dir string
	id  Identity

	mu           sync.RWMutex
	col          *telemetry.Collector
	segs         []*segment // ascending seq; the last one is the append target
	nextSeq      uint64
	rotateBytes  int64
	compactAfter int
}

// openCampaign opens dir as id's campaign log, creating the directory and
// an empty manifest when absent. Segments named by the manifest are
// validated: every committed byte must parse as whole, CRC-clean frames
// (else ErrCorrupt); bytes past the committed length — an append the
// crash interrupted before its manifest landed — are adopted frame by
// frame until the first torn or invalid one. Files the manifest does not
// reference (half-made segments, orphaned temp manifests) are removed.
func openCampaign(dir string, id Identity, col *telemetry.Collector) (*Campaign, error) {
	if err := id.validate(); err != nil {
		return nil, err
	}
	c := &Campaign{
		dir: dir, id: id, col: col,
		nextSeq:      1,
		rotateBytes:  defaultRotateBytes,
		compactAfter: defaultCompactAfter,
	}
	mPath := filepath.Join(dir, manifestName)
	m, err := readManifest(mPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: create campaign dir: %w", err)
		}
		if err := writeManifest(dir, &manifest{id: id, nextSeq: c.nextSeq}); err != nil {
			return nil, fmt.Errorf("store: write initial manifest: %w", err)
		}
		return c, nil
	case err != nil:
		return nil, err
	}
	if m.id != id {
		return nil, fmt.Errorf("%w: store has %v, campaign supplies %v", ErrIdentityMismatch, m.id, id)
	}
	c.nextSeq = m.nextSeq
	for _, ms := range m.segs {
		seg, err := openSegment(dir, ms, id.experiments())
		if err != nil {
			c.Close()
			return nil, err
		}
		c.segs = append(c.segs, seg)
	}
	c.removeOrphans(m)
	return c, nil
}

// openSegment opens and validates one manifest-listed segment file.
func openSegment(dir string, ms manifestSeg, experiments int) (*segment, error) {
	path := filepath.Join(dir, segFileName(ms.seq))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s: segment missing", ErrCorrupt, path)
		}
		return nil, err
	}
	seg, err := scanSegment(f, ms, experiments)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return seg, nil
}

func scanSegment(f *os.File, ms manifestSeg, experiments int) (*segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < ms.committed {
		return nil, fmt.Errorf("%w: segment %d bytes, manifest committed %d", ErrCorrupt, st.Size(), ms.committed)
	}
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, st.Size()), 1<<16)
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: segment header: %v", ErrCorrupt, err)
	}
	if string(hdr[:4]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[16:20]) != crc32.ChecksumIEEE(hdr[:16]) {
		return nil, fmt.Errorf("%w: segment header", ErrCorrupt)
	}
	if hdr[4] != segVersion {
		return nil, fmt.Errorf("store: segment version %d, this build reads %d", hdr[4], segVersion)
	}
	if seq := binary.LittleEndian.Uint64(hdr[8:16]); seq != ms.seq {
		return nil, fmt.Errorf("%w: segment header seq %d, manifest %d", ErrCorrupt, seq, ms.seq)
	}
	seg := &segment{seq: ms.seq, f: f, size: segHeaderSize}
	var rec [recordSize]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			break // EOF or torn final frame
		}
		key, _, ok := parseRecord(rec[:], experiments)
		if !ok {
			if seg.size < ms.committed {
				return nil, fmt.Errorf("%w: record at offset %d inside committed region", ErrCorrupt, seg.size)
			}
			break // torn tail from an interrupted append
		}
		seg.noteRecord(key)
		seg.size += recordSize
	}
	if seg.size < ms.committed {
		return nil, fmt.Errorf("%w: committed region ends at %d, manifest says %d", ErrCorrupt, seg.size, ms.committed)
	}
	return seg, nil
}

// removeOrphans deletes segment files and temp manifests that the live
// manifest does not reference — leftovers of a crash between creating a
// file and committing it, or of an interrupted compaction cleanup.
func (c *Campaign) removeOrphans(m *manifest) {
	live := make(map[string]bool, len(m.segs))
	for _, s := range m.segs {
		live[segFileName(s.seq)] = true
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := strings.HasPrefix(name, ".manifest-") ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") && !live[name])
		if stale {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
}

// ID returns the campaign's identity.
func (c *Campaign) ID() Identity { return c.id }

// Dir returns the campaign's directory path.
func (c *Campaign) Dir() string { return c.dir }

func (c *Campaign) setCollector(col *telemetry.Collector) {
	c.mu.Lock()
	c.col = col
	c.mu.Unlock()
}

// Close releases the campaign's file handles. Further use is invalid.
func (c *Campaign) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, s := range c.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.segs = nil
	return first
}

// Append durably records the outcomes of the contiguous experiment range
// [start, start+len(kinds)). The batch is fsynced into the active segment
// before the manifest commits it; a crash between the two leaves a tail
// the next open adopts frame by frame, so a reopened store always shows a
// record-consistent prefix of the batch. Re-appending a range supersedes
// the earlier records (last writer wins).
func (c *Campaign) Append(start int, kinds []outcome.Kind) error {
	if len(kinds) == 0 {
		return nil
	}
	if start < 0 || start+len(kinds) > c.id.experiments() {
		return fmt.Errorf("store: append range [%d, %d) outside campaign's %d experiments",
			start, start+len(kinds), c.id.experiments())
	}
	for i, k := range kinds {
		if int(k) >= outcome.NumKinds {
			return fmt.Errorf("store: append experiment %d has invalid outcome kind %d", start+i, k)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seg, err := c.appendTargetLocked()
	if err != nil {
		return err
	}
	buf := make([]byte, len(kinds)*recordSize)
	for i, k := range kinds {
		putRecord(buf[i*recordSize:(i+1)*recordSize], uint32(start+i), k)
	}
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("store: append sync: %w", err)
	}
	for i := range kinds {
		seg.noteRecord(uint32(start + i))
	}
	seg.size += int64(len(buf))
	if err := c.writeManifestLocked(); err != nil {
		return fmt.Errorf("store: commit append: %w", err)
	}
	if c.col != nil {
		c.col.StoreAppend(len(kinds))
	}
	if len(c.segs) > c.compactAfter {
		if _, err := c.compactLocked(); err != nil {
			return fmt.Errorf("store: auto-compact: %w", err)
		}
	}
	return nil
}

// appendTargetLocked returns the active segment, rotating to a fresh one
// when the current active is full (or none exists).
func (c *Campaign) appendTargetLocked() (*segment, error) {
	if n := len(c.segs); n > 0 && c.segs[n-1].size < c.rotateBytes {
		return c.segs[n-1], nil
	}
	return c.newSegmentLocked()
}

// newSegmentLocked creates the next segment file with a synced header.
// The segment becomes durable only when a later manifest references it;
// until then a crash leaves an orphan that reopen removes.
func (c *Campaign) newSegmentLocked() (*segment, error) {
	seq := c.nextSeq
	c.nextSeq++
	f, err := os.OpenFile(filepath.Join(c.dir, segFileName(seq)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.WriteAt(encodeSegHeader(seq), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: sync segment header: %w", err)
	}
	seg := &segment{seq: seq, f: f, size: segHeaderSize}
	c.segs = append(c.segs, seg)
	return seg, nil
}

func (c *Campaign) writeManifestLocked() error {
	m := &manifest{id: c.id, nextSeq: c.nextSeq}
	for _, s := range c.segs {
		m.segs = append(m.segs, manifestSeg{seq: s.seq, committed: s.size})
	}
	return writeManifest(c.dir, m)
}

// Get returns the stored outcome of (site, bit), or found=false when the
// experiment has no record yet. Duplicates resolve last-writer-wins.
func (c *Campaign) Get(site, bit int) (k outcome.Kind, found bool, err error) {
	if site < 0 || site >= c.id.Sites {
		return 0, false, fmt.Errorf("store: site %d outside [0, %d)", site, c.id.Sites)
	}
	if bit < 0 || bit >= c.id.Bits {
		return 0, false, fmt.Errorf("store: bit %d outside [0, %d)", bit, c.id.Bits)
	}
	key := uint32(site*c.id.Bits + bit)
	c.mu.RLock()
	defer c.mu.RUnlock()
	read := int64(0)
	defer func() {
		if c.col != nil {
			c.col.StoreLookup(read)
		}
	}()
	buf := make([]byte, blockRecords*recordSize)
	for i := len(c.segs) - 1; i >= 0; i-- {
		seg := c.segs[i]
		for j := len(seg.blocks) - 1; j >= 0; j-- {
			b := seg.blocks[j]
			if key < b.minKey || key > b.maxKey {
				continue
			}
			bb := buf[:b.n*recordSize]
			if _, err := seg.f.ReadAt(bb, b.off); err != nil {
				return 0, false, fmt.Errorf("store: read segment %d: %w", seg.seq, err)
			}
			read += int64(b.n)
			for r := b.n - 1; r >= 0; r-- {
				rk, kind, ok := parseRecord(bb[r*recordSize:(r+1)*recordSize], c.id.experiments())
				if !ok {
					return 0, false, fmt.Errorf("%w: segment %d offset %d changed under reader",
						ErrCorrupt, seg.seq, b.off+int64(r*recordSize))
				}
				if rk == key {
					return kind, true, nil
				}
			}
		}
	}
	return 0, false, nil
}

// scanLocked overlays every stored record in [lo, hi) onto kinds/set
// (both len hi-lo), visiting segments and offsets in write order so the
// last writer wins. Returns the number of records read.
func (c *Campaign) scanLocked(lo, hi int, kinds []outcome.Kind, set []bool) (int64, error) {
	read := int64(0)
	buf := make([]byte, blockRecords*recordSize)
	for _, seg := range c.segs {
		for _, b := range seg.blocks {
			if int64(b.maxKey) < int64(lo) || int64(b.minKey) >= int64(hi) {
				continue
			}
			bb := buf[:b.n*recordSize]
			if _, err := seg.f.ReadAt(bb, b.off); err != nil {
				return read, fmt.Errorf("store: read segment %d: %w", seg.seq, err)
			}
			read += int64(b.n)
			for r := 0; r < b.n; r++ {
				key, kind, ok := parseRecord(bb[r*recordSize:(r+1)*recordSize], c.id.experiments())
				if !ok {
					return read, fmt.Errorf("%w: segment %d offset %d changed under reader",
						ErrCorrupt, seg.seq, b.off+int64(r*recordSize))
				}
				if int64(key) >= int64(lo) && int64(key) < int64(hi) {
					kinds[key-uint32(lo)] = kind
					set[key-uint32(lo)] = true
				}
			}
		}
	}
	return read, nil
}

// Scan resolves the experiment range [lo, hi): kinds[i] holds the stored
// outcome of experiment lo+i where set[i] is true.
func (c *Campaign) Scan(lo, hi int) (kinds []outcome.Kind, set []bool, err error) {
	if lo < 0 || hi < lo || hi > c.id.experiments() {
		return nil, nil, fmt.Errorf("store: scan range [%d, %d) outside campaign's %d experiments",
			lo, hi, c.id.experiments())
	}
	kinds = make([]outcome.Kind, hi-lo)
	set = make([]bool, hi-lo)
	c.mu.RLock()
	read, err := c.scanLocked(lo, hi, kinds, set)
	col := c.col
	c.mu.RUnlock()
	if col != nil {
		col.StoreScan(read)
	}
	if err != nil {
		return nil, nil, err
	}
	return kinds, set, nil
}

// Summary aggregates the stored outcomes of sites [loSite, hiSite).
func (c *Campaign) Summary(loSite, hiSite int) (Summary, error) {
	kinds, set, err := c.siteRange(loSite, hiSite)
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	for i, ok := range set {
		if ok {
			s.Counts.Add(kinds[i])
		} else {
			s.Missing++
		}
	}
	return s, nil
}

// SiteSlice resolves sites [loSite, hiSite) into per-site outcome counts
// plus per-site missing-experiment counts — the boundary-slice view the
// query surface serves.
func (c *Campaign) SiteSlice(loSite, hiSite int) ([]outcome.Counts, []int, error) {
	kinds, set, err := c.siteRange(loSite, hiSite)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]outcome.Counts, hiSite-loSite)
	missing := make([]int, hiSite-loSite)
	for i, ok := range set {
		site := i / c.id.Bits
		if ok {
			counts[site].Add(kinds[i])
		} else {
			missing[site]++
		}
	}
	return counts, missing, nil
}

func (c *Campaign) siteRange(loSite, hiSite int) ([]outcome.Kind, []bool, error) {
	if loSite < 0 || hiSite < loSite || hiSite > c.id.Sites {
		return nil, nil, fmt.Errorf("store: site range [%d, %d) outside [0, %d)", loSite, hiSite, c.id.Sites)
	}
	return c.Scan(loSite*c.id.Bits, hiSite*c.id.Bits)
}

// Materialize reassembles the campaign's full GroundTruth from the store.
// Every experiment must have a record; otherwise the error wraps
// ErrIncomplete (use MaterializeSparse for partial campaigns).
func (c *Campaign) Materialize() (*campaign.GroundTruth, error) {
	gt, ranges, err := c.MaterializeSparse()
	if err != nil {
		return nil, err
	}
	covered := 0
	for _, r := range ranges {
		covered += r.Hi - r.Lo
	}
	if covered != c.id.experiments() {
		return nil, fmt.Errorf("%w: %d of %d experiments stored", ErrIncomplete, covered, c.id.experiments())
	}
	return gt, nil
}

// MaterializeSparse reassembles whatever the store holds: a GroundTruth
// whose kinds are valid inside the returned completed ranges (sorted,
// non-adjacent, half-open experiment-index ranges) and zero elsewhere.
func (c *Campaign) MaterializeSparse() (*campaign.GroundTruth, []campaign.Range, error) {
	total := c.id.experiments()
	kinds := make([]outcome.Kind, total)
	set := make([]bool, total)
	c.mu.RLock()
	read, err := c.scanLocked(0, total, kinds, set)
	col := c.col
	c.mu.RUnlock()
	if col != nil {
		col.StoreScan(read)
	}
	if err != nil {
		return nil, nil, err
	}
	gt := &campaign.GroundTruth{SitesN: c.id.Sites, BitsN: c.id.Bits, WidthN: c.id.Width, Kinds: kinds}
	return gt, rangesOf(set), nil
}

// rangesOf converts a presence bitmap into sorted maximal ranges.
func rangesOf(set []bool) []campaign.Range {
	var rs []campaign.Range
	for i := 0; i < len(set); {
		if !set[i] {
			i++
			continue
		}
		j := i
		for j < len(set) && set[j] {
			j++
		}
		rs = append(rs, campaign.Range{Lo: i, Hi: j})
		i = j
	}
	return rs
}

// Completed returns the experiment ranges with stored outcomes.
func (c *Campaign) Completed() ([]campaign.Range, error) {
	_, rs, err := c.MaterializeSparse()
	return rs, err
}

// ImportGroundTruth migrates a fully-materialized ground truth — e.g.
// one loaded from a SaveGroundTruth container — into the campaign log as
// one appended batch. The shape must match the campaign identity; a
// disagreement wraps ErrIdentityMismatch.
func (c *Campaign) ImportGroundTruth(gt *campaign.GroundTruth) error {
	if gt.SitesN != c.id.Sites || gt.BitsN != c.id.Bits || gt.Width() != c.id.Width {
		return fmt.Errorf("%w: ground truth is %d sites × %d bits (width %d), campaign %v",
			ErrIdentityMismatch, gt.SitesN, gt.BitsN, gt.Width(), c.id)
	}
	if len(gt.Kinds) != c.id.experiments() {
		return fmt.Errorf("%w: ground truth has %d records, campaign wants %d",
			ErrIdentityMismatch, len(gt.Kinds), c.id.experiments())
	}
	return c.Append(0, gt.Kinds)
}

// Compact folds every live segment into one, resolving duplicates
// last-writer-wins and dropping superseded records, then commits the
// result and removes the old files. Query results are unchanged; segment
// count and bytes shrink whenever overlap existed.
func (c *Campaign) Compact() (CompactStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked()
}

func (c *Campaign) compactLocked() (CompactStats, error) {
	stats := CompactStats{SegmentsBefore: len(c.segs)}
	for _, s := range c.segs {
		stats.BytesBefore += s.size
	}
	if len(c.segs) <= 1 {
		stats.SegmentsAfter = stats.SegmentsBefore
		stats.BytesAfter = stats.BytesBefore
		return stats, nil
	}
	total := c.id.experiments()
	kinds := make([]outcome.Kind, total)
	set := make([]bool, total)
	if _, err := c.scanLocked(0, total, kinds, set); err != nil {
		return stats, err
	}
	old := c.segs
	c.segs = nil
	// rollback undoes a failed compaction: the untouched old segments
	// stay live (on disk the manifest never stopped referencing them)
	// and the half-written replacement becomes an orphan for reopen.
	rollback := func() {
		if n := len(c.segs); n == 1 {
			c.segs[0].f.Close()
			os.Remove(filepath.Join(c.dir, segFileName(c.segs[0].seq)))
		}
		c.segs = old
	}
	seg, err := c.newSegmentLocked()
	if err != nil {
		c.segs = old
		return stats, err
	}
	var buf []byte
	var frame [recordSize]byte
	for key, ok := range set {
		if !ok {
			continue
		}
		putRecord(frame[:], uint32(key), kinds[key])
		buf = append(buf, frame[:]...)
	}
	if len(buf) > 0 {
		if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
			rollback()
			return stats, fmt.Errorf("store: compact write: %w", err)
		}
	}
	if err := seg.f.Sync(); err != nil {
		rollback()
		return stats, fmt.Errorf("store: compact sync: %w", err)
	}
	for key, ok := range set {
		if ok {
			seg.noteRecord(uint32(key))
		}
	}
	seg.size += int64(len(buf))
	if err := c.writeManifestLocked(); err != nil {
		rollback()
		return stats, fmt.Errorf("store: commit compaction: %w", err)
	}
	// The old files are no longer referenced; removal is best-effort
	// because reopen garbage-collects unreferenced segments anyway.
	for _, s := range old {
		s.f.Close()
		os.Remove(filepath.Join(c.dir, segFileName(s.seq)))
	}
	stats.SegmentsAfter = 1
	stats.BytesAfter = seg.size
	if c.col != nil {
		c.col.StoreCompaction(stats.SegmentsBefore, stats.BytesBefore-stats.BytesAfter)
	}
	return stats, nil
}

// Info summarizes the campaign for listings.
func (c *Campaign) Info() CampaignInfo {
	c.mu.RLock()
	info := CampaignInfo{
		Identity: c.id,
		Dir:      filepath.Base(c.dir),
		Segments: len(c.segs),
		Total:    int64(c.id.experiments()),
	}
	for _, s := range c.segs {
		info.Records += int64(s.records)
		info.Bytes += s.size
	}
	c.mu.RUnlock()
	if rs, err := c.Completed(); err == nil {
		for _, r := range rs {
			info.Covered += int64(r.Hi - r.Lo)
		}
	}
	return info
}

// SegmentCount returns the number of live segments.
func (c *Campaign) SegmentCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.segs)
}

// Bytes returns the committed bytes across live segments.
func (c *Campaign) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, s := range c.segs {
		n += s.size
	}
	return n
}

// isSyncUnsupported reports fsync errors that mean "this file kind does
// not support fsync here" (directories on some filesystems) rather than
// a failed flush.
func isSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY) || errors.Is(err, syscall.EBADF)
}
