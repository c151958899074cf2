package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftb/internal/campaign"
	"ftb/internal/kernels"
	"ftb/internal/outcome"
	"ftb/internal/persist"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// testFactory returns a fresh instance of the named kernel at test size.
func testFactory(t testing.TB, name string) func() trace.Program {
	t.Helper()
	return func() trace.Program {
		k, err := kernels.New(name, kernels.SizeTest)
		if err != nil {
			panic(err)
		}
		return k
	}
}

func testTolerance(t testing.TB, name string) float64 {
	t.Helper()
	k, err := kernels.New(name, kernels.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	return k.Tolerance()
}

// startTestWorker serves a worker for the named kernel on an in-process
// HTTP server, optionally wrapping the handler.
func startTestWorker(t testing.TB, name string, wrap func(http.Handler) http.Handler) (*Worker, *httptest.Server) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Factory: testFactory(t, name), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(w.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return w, srv
}

// inProcessGT runs the reference single-process campaign.
func inProcessGT(t testing.TB, name string, golden *trace.GoldenRun, tol float64, bits int) *campaign.GroundTruth {
	t.Helper()
	gt, err := campaign.Exhaustive(campaign.Config{
		Factory: testFactory(t, name),
		Golden:  golden,
		Tol:     tol,
		Bits:    bits,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

// gtBytes is the persisted encoding — the "byte-identical" yardstick.
func gtBytes(t testing.TB, gt *campaign.GroundTruth) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveGroundTruth(&buf, gt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClusterMatchesInProcess(t *testing.T) {
	const name, bits = "cg", 4
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))

	_, w1 := startTestWorker(t, name, nil)
	_, w2 := startTestWorker(t, name, nil)
	col := telemetry.New()
	var events []campaign.Event
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden:    golden,
			Tol:       tol,
			Bits:      bits,
			Collector: col,
			Observer:  campaign.ObserverFunc(func(e campaign.Event) { events = append(events, e) }),
		},
		Workers:   []string{w1.URL, w2.URL},
		Program:   name,
		ShardSize: 97, // deliberately not a divisor of the space
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := gtBytes(t, res.GT); !bytes.Equal(got, want) {
		t.Fatal("cluster ground truth is not byte-identical to the in-process campaign")
	}
	total := golden.Sites() * bits
	if res.Frontier != total {
		t.Errorf("Frontier = %d, want %d", res.Frontier, total)
	}
	wantShards := (total + 96) / 97
	if res.Shards != wantShards {
		t.Errorf("Shards = %d, want %d", res.Shards, wantShards)
	}
	if res.Retries != 0 || res.WorkersLost != 0 {
		t.Errorf("Retries/WorkersLost = %d/%d, want 0/0", res.Retries, res.WorkersLost)
	}

	// Merged telemetry covers the whole space, namespaced per worker URL.
	if res.Telemetry.Experiments != int64(total) {
		t.Errorf("merged telemetry experiments = %d, want %d", res.Telemetry.Experiments, total)
	}
	shards := map[string]bool{}
	for _, w := range res.Telemetry.Workers {
		shards[w.Shard] = true
	}
	if !shards[w1.URL] || !shards[w2.URL] {
		t.Errorf("merged telemetry worker shards = %v, want both worker URLs", shards)
	}
	// The coordinator's live collector absorbed every shard too.
	if s := col.Snapshot(); s.Experiments != int64(total) {
		t.Errorf("absorbed collector experiments = %d, want %d", s.Experiments, total)
	}

	// Observer events are monotonic and end complete.
	if len(events) == 0 {
		t.Fatal("no observer events")
	}
	last := events[len(events)-1]
	if last.Done != total || last.Frontier != total || last.Phase != "exhaustive" {
		t.Errorf("final event = %+v, want done=frontier=%d phase=exhaustive", last, total)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Frontier < events[i-1].Frontier || events[i].Done < events[i-1].Done {
			t.Fatalf("event %d regressed: %+v after %+v", i, events[i], events[i-1])
		}
	}
	if last.Counts.Total() != total {
		t.Errorf("final counts total = %d, want %d", last.Counts.Total(), total)
	}
}

// flaky fails the first n /v1/run requests with a 500.
type flaky struct {
	h  http.Handler
	mu sync.Mutex
	n  int
}

func (f *flaky) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == pathRun {
		f.mu.Lock()
		fail := f.n > 0
		if fail {
			f.n--
		}
		f.mu.Unlock()
		if fail {
			http.Error(rw, "injected failure", http.StatusInternalServerError)
			return
		}
	}
	f.h.ServeHTTP(rw, r)
}

func TestClusterRetriesFlakyWorker(t *testing.T) {
	const name, bits = "cg", 2
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))

	_, w1 := startTestWorker(t, name, func(h http.Handler) http.Handler { return &flaky{h: h, n: 2} })
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden: golden,
			Tol:    tol,
			Bits:   bits,
		},
		Workers:   []string{w1.URL},
		ShardSize: 64,
		Backoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", res.Retries)
	}
	if got := gtBytes(t, res.GT); !bytes.Equal(got, want) {
		t.Fatal("ground truth diverged after retries")
	}
}

func TestClusterDropsDeadWorker(t *testing.T) {
	const name, bits = "cg", 1
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))

	// The dying worker serves /v1/info honestly, then drops every run
	// request on the floor by closing the connection — a worker that
	// died right after the identity check. The healthy worker holds its
	// first lease until the dying one has failed MaxWorkerFailures
	// times, so it cannot finish the campaign before the drop.
	const maxFailures = 2
	var dropped atomic.Int32
	failedOut := make(chan struct{})
	_, healthy := startTestWorker(t, name, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathRun {
				select {
				case <-failedOut:
				case <-time.After(30 * time.Second):
					t.Error("dying worker never failed out")
				}
			}
			h.ServeHTTP(rw, r)
		})
	})
	_, dying := startTestWorker(t, name, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathRun {
				hj, ok := rw.(http.Hijacker)
				if !ok {
					t.Error("response writer is not hijackable")
					return
				}
				conn, _, err := hj.Hijack()
				if err == nil {
					conn.Close()
				}
				if dropped.Add(1) == maxFailures {
					close(failedOut)
				}
				return
			}
			h.ServeHTTP(rw, r)
		})
	})
	res, err := Exhaustive(Config{
		Campaign: campaign.Config{
			Golden: golden,
			Tol:    tol,
			Bits:   bits,
		},
		Workers:           []string{dying.URL, healthy.URL},
		ShardSize:         64,
		Backoff:           time.Millisecond,
		MaxWorkerFailures: maxFailures,
		MaxLeaseAttempts:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.WorkersLost)
	}
	if got := gtBytes(t, res.GT); !bytes.Equal(got, want) {
		t.Fatal("ground truth diverged after losing a worker")
	}
}

// leaseLog records the [lo, hi) of every /v1/run request.
type leaseLog struct {
	h  http.Handler
	mu sync.Mutex
	lo []int
}

func (l *leaseLog) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == pathRun {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var req runRequest
			if json.Unmarshal(body, &req) == nil {
				l.mu.Lock()
				l.lo = append(l.lo, req.Lo)
				l.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	l.h.ServeHTTP(rw, r)
}

// TestClusterCheckpointResume kills the coordinator (by context) after a
// third of the space has merged and verifies the resumed campaign, given
// the merged shards as completed ranges, never re-leases them and still
// produces the byte-identical ground truth.
func TestClusterCheckpointResume(t *testing.T) {
	const name, bits = "cg", 2
	golden, err := trace.Golden(testFactory(t, name)())
	if err != nil {
		t.Fatal(err)
	}
	tol := testTolerance(t, name)
	want := gtBytes(t, inProcessGT(t, name, golden, tol, bits))
	total := golden.Sites() * bits

	log := &leaseLog{}
	_, w1 := startTestWorker(t, name, func(h http.Handler) http.Handler { log.h = h; return log })

	// Phase 1: record every merged shard, as a store would, and cancel
	// once a third of the space has merged — the "killed coordinator".
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Campaign: campaign.Config{
			Golden:  golden,
			Tol:     tol,
			Bits:    bits,
			Context: ctx,
		},
		Workers:   []string{w1.URL},
		ShardSize: 32,
	}
	prior := &campaign.GroundTruth{SitesN: golden.Sites(), BitsN: bits, WidthN: 64, Kinds: make([]outcome.Kind, total)}
	merged := make([]bool, total)
	n := 0
	cfg1 := cfg
	cfg1.OnShard = func(lo, hi int, kinds []outcome.Kind) error {
		copy(prior.Kinds[lo:hi], kinds)
		for i := lo; i < hi; i++ {
			merged[i] = true
		}
		if n += hi - lo; n >= total/3 {
			cancel()
		}
		return nil
	}
	if _, err := Exhaustive(cfg1); err == nil {
		t.Fatal("phase 1 completed despite cancellation")
	}
	if n < total/3 || n >= total {
		t.Fatalf("phase 1 merged %d/%d experiments, want a strict subset past the cancellation threshold", n, total)
	}
	var completed []campaign.Range
	for i := 0; i < total; i++ {
		if !merged[i] {
			continue
		}
		j := i
		for j < total && merged[j] {
			j++
		}
		completed = append(completed, campaign.Range{Lo: i, Hi: j})
		i = j
	}

	// Phase 2: fresh coordinator resuming from the merged ranges.
	log.mu.Lock()
	log.lo = nil
	log.mu.Unlock()
	cfg2 := cfg
	cfg2.Campaign.Context = context.Background()
	cfg2.Prior = prior
	cfg2.Completed = completed
	res2, err := Exhaustive(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := gtBytes(t, res2.GT); !bytes.Equal(got, want) {
		t.Fatal("resumed ground truth is not byte-identical to the in-process campaign")
	}
	log.mu.Lock()
	leased := append([]int(nil), log.lo...)
	log.mu.Unlock()
	if len(leased) == 0 {
		t.Fatal("resume issued no leases")
	}
	for _, lo := range leased {
		if merged[lo] {
			t.Errorf("resume re-leased completed work: lease lo %d was merged in phase 1", lo)
		}
	}
	if res2.Shards != len(leased) {
		t.Errorf("resume merged %d shards for %d leases", res2.Shards, len(leased))
	}
}

func TestClusterRejectsMismatchedWorker(t *testing.T) {
	goldenCG, err := trace.Golden(testFactory(t, "cg")())
	if err != nil {
		t.Fatal(err)
	}
	_, wLU := startTestWorker(t, "lu", nil)
	_, err = Exhaustive(Config{
		Campaign: campaign.Config{
			Golden: goldenCG,
			Tol:    1e-6,
			Bits:   1,
		},
		Workers: []string{wLU.URL},
		Program: "cg",
	})
	if err == nil {
		t.Fatal("coordinator accepted a worker serving a different program")
	}
	if !strings.Contains(err.Error(), wLU.URL) {
		t.Errorf("error %q does not identify the offending worker", err)
	}
}

func TestWorkerRejectsBadLeases(t *testing.T) {
	w, srv := startTestWorker(t, "cg", nil)
	info := w.Info()
	post := func(t *testing.T, req runRequest) (int, string) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+pathRun, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	good := runRequest{Lo: 0, Hi: 4, Bits: 4, Width: 64, Tol: 1e-6, GoldenCRC: info.GoldenCRC}

	bad := good
	bad.GoldenCRC++
	if code, msg := post(t, bad); code != http.StatusConflict || !strings.Contains(msg, "fingerprint") {
		t.Errorf("mismatched CRC: got %d %q, want 409 fingerprint error", code, msg)
	}
	bad = good
	bad.Width = 32
	if code, _ := post(t, bad); code != http.StatusConflict {
		t.Errorf("mismatched width: got %d, want 409", code)
	}
	bad = good
	bad.Hi = info.Sites*bad.Bits + 1
	if code, _ := post(t, bad); code != http.StatusBadRequest {
		t.Errorf("out-of-range lease: got %d, want 400", code)
	}
	bad = good
	bad.Bits = 99
	if code, _ := post(t, bad); code != http.StatusBadRequest {
		t.Errorf("bad bits: got %d, want 400", code)
	}
	bad = good
	bad.Tol = 0
	if code, _ := post(t, bad); code != http.StatusBadRequest {
		t.Errorf("zero tolerance: got %d, want 400", code)
	}
	resp, err := http.Get(srv.URL + pathRun)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on run: got %d, want 405", resp.StatusCode)
	}

	// And the good lease actually works.
	if code, msg := post(t, good); code != http.StatusOK {
		t.Errorf("valid lease rejected: %d %q", code, msg)
	}
}

func TestWorkerInfoAndHealth(t *testing.T) {
	w, srv := startTestWorker(t, "cg", nil)
	resp, err := http.Get(srv.URL + pathHealth)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + pathInfo)
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info != w.Info() {
		t.Errorf("served info %+v != worker info %+v", info, w.Info())
	}
	if info.Program != "cg" || info.Sites <= 0 || info.Width != 64 || info.GoldenCRC == 0 {
		t.Errorf("implausible info: %+v", info)
	}
}

func TestGoldenCRCDistinguishesPrograms(t *testing.T) {
	gCG, err := trace.Golden(testFactory(t, "cg")())
	if err != nil {
		t.Fatal(err)
	}
	gLU, err := trace.Golden(testFactory(t, "lu")())
	if err != nil {
		t.Fatal(err)
	}
	if GoldenCRC(gCG) == GoldenCRC(gLU) {
		t.Error("different programs share a golden fingerprint")
	}
	if GoldenCRC(gCG) != GoldenCRC(gCG) {
		t.Error("fingerprint is not deterministic")
	}
}

func TestBackoffDelay(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for k, w := range want {
		if got := backoffDelay(base, cap, k+1); got != w {
			t.Errorf("backoffDelay(k=%d) = %s, want %s", k+1, got, w)
		}
	}
}
