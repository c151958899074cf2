package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ftb/internal/campaign"
	"ftb/internal/outcome"
	"ftb/internal/telemetry"
)

// fuzzLease is the lease the fuzzed run responses answer, in a space of
// fuzzTotal experiments.
var fuzzLease = lease{lo: 4, hi: 12}

const fuzzTotal = 16

// FuzzLeaseJSON feeds arbitrary bytes to both ends of the lease
// protocol. As a /v1/run request body, served by a worker through
// httptest, they get a 4xx, or a 200 whose response passes the
// coordinator's checks for the lease the body asked for. As a
// runResponse body, they either fail validateResponse, or merge into
// the ground truth without a panic, so merge never indexes anything a
// response did not prove in range. Seed corpus:
// testdata/fuzz/FuzzLeaseJSON (valid and malformed requests against the
// matvec worker, valid and malformed responses to fuzzLease).
func FuzzLeaseJSON(f *testing.F) {
	w, err := NewWorker(WorkerConfig{Factory: testFactory(f, "matvec"), Procs: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, pathRun, bytes.NewReader(body)))
		switch code := rw.Code; {
		case code == http.StatusOK:
			var req runRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("worker ran a lease for a body that does not decode: %v", err)
			}
			var resp runResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
				t.Fatalf("worker's run response does not decode: %v", err)
			}
			if err := (&coordinator{}).validateResponse(lease{lo: req.Lo, hi: req.Hi}, &resp); err != nil {
				t.Fatalf("worker's run response for [%d, %d) fails validation: %v", req.Lo, req.Hi, err)
			}
		case code < 400 || code >= 500:
			t.Fatalf("status %d for a fuzzed lease request: %s", code, rw.Body.Bytes())
		}

		var resp runResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return
		}
		co := &coordinator{
			cfg: Config{Campaign: campaign.Config{
				Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
				Collector: telemetry.New(),
			}},
			gt:    &campaign.GroundTruth{Kinds: make([]outcome.Kind, fuzzTotal)},
			total: fuzzTotal,
			done:  make(chan struct{}),
			began: time.Now(),
		}
		if err := co.validateResponse(fuzzLease, &resp); err != nil {
			return
		}
		if err := co.merge(fuzzLease, &resp, "http://fuzz", 0); err != nil {
			t.Fatalf("merge of a validated response: %v", err)
		}
		for i, k := range co.gt.Kinds {
			inLease := i >= fuzzLease.lo && i < fuzzLease.hi
			if inLease && byte(k) != resp.Kinds[i-fuzzLease.lo] || !inLease && k != 0 {
				t.Fatalf("merged kinds %v from response kinds %v", co.gt.Kinds, resp.Kinds)
			}
		}
	})
}
