package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeManifest: decodeManifest rejects arbitrary bytes with an
// error, never a panic, and a manifest it accepts re-encodes to bytes it
// decodes to the same manifest (encode∘decode is a fixed point). Seed
// corpus: testdata/fuzz/FuzzDecodeManifest.
func FuzzDecodeManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		enc := m.encode()
		again, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatalf("manifest changed across a round trip:\n%x\n%x", enc, again.encode())
		}
	})
}
