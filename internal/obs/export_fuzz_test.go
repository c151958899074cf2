package obs

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL: ReadJSONL rejects arbitrary bytes with an error, never
// a panic, and spans it accepts survive a WriteJSONL/ReadJSONL round
// trip unchanged. Seed corpus: testdata/fuzz/FuzzReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteJSONL(&first, spans); err != nil {
			t.Fatalf("WriteJSONL of read spans: %v", err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written spans rejected: %v", err)
		}
		var second bytes.Buffer
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("spans changed across a round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
