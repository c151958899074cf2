package ftb

import (
	"io"

	"ftb/internal/persist"
)

// Serialization of analysis artifacts. The format is a small versioned
// binary container with a trailing CRC-32; float payloads round-trip
// bit-exactly. See WithStore for durable, resumable exhaustive
// campaigns.

// SaveGoldenRun writes a golden run to w.
func SaveGoldenRun(w io.Writer, g *GoldenRun) error { return persist.SaveGolden(w, g) }

// LoadGoldenRun reads a golden run from r.
func LoadGoldenRun(r io.Reader) (*GoldenRun, error) { return persist.LoadGolden(r) }

// SaveGroundTruth writes an exhaustive campaign result to w.
func SaveGroundTruth(w io.Writer, gt *GroundTruth) error { return persist.SaveGroundTruth(w, gt) }

// LoadGroundTruth reads an exhaustive campaign result from r.
func LoadGroundTruth(r io.Reader) (*GroundTruth, error) { return persist.LoadGroundTruth(r) }

// SaveBoundary writes a fault tolerance boundary to w.
func SaveBoundary(w io.Writer, b *Boundary) error { return persist.SaveBoundary(w, b) }

// LoadBoundary reads a fault tolerance boundary from r.
func LoadBoundary(r io.Reader) (*Boundary, error) { return persist.LoadBoundary(r) }

// SaveKnown writes a sampled-outcome table to w.
func SaveKnown(w io.Writer, k *Known) error { return persist.SaveKnown(w, k) }

// LoadKnown reads a sampled-outcome table from r.
func LoadKnown(r io.Reader) (*Known, error) { return persist.LoadKnown(r) }

// SaveGroundTruthFile / LoadGroundTruthFile and friends write artifacts
// to disk atomically (temp file + rename in the target directory).

// SaveGoldenRunFile writes a golden run to path atomically.
func SaveGoldenRunFile(path string, g *GoldenRun) error {
	return persist.SaveFile(path, g, persist.SaveGolden)
}

// LoadGoldenRunFile reads a golden run from path.
func LoadGoldenRunFile(path string) (*GoldenRun, error) {
	return persist.LoadFile(path, persist.LoadGolden)
}

// SaveGroundTruthFile writes an exhaustive campaign result to path
// atomically.
func SaveGroundTruthFile(path string, gt *GroundTruth) error {
	return persist.SaveFile(path, gt, persist.SaveGroundTruth)
}

// LoadGroundTruthFile reads an exhaustive campaign result from path.
func LoadGroundTruthFile(path string) (*GroundTruth, error) {
	return persist.LoadFile(path, persist.LoadGroundTruth)
}

// SaveBoundaryFile writes a fault tolerance boundary to path atomically.
func SaveBoundaryFile(path string, b *Boundary) error {
	return persist.SaveFile(path, b, persist.SaveBoundary)
}

// LoadBoundaryFile reads a fault tolerance boundary from path.
func LoadBoundaryFile(path string) (*Boundary, error) {
	return persist.LoadFile(path, persist.LoadBoundary)
}

// SaveKnownFile writes a sampled-outcome table to path atomically.
func SaveKnownFile(path string, k *Known) error {
	return persist.SaveFile(path, k, persist.SaveKnown)
}

// LoadKnownFile reads a sampled-outcome table from path.
func LoadKnownFile(path string) (*Known, error) {
	return persist.LoadFile(path, persist.LoadKnown)
}
