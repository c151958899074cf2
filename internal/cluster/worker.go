package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ftb/internal/bits"
	"ftb/internal/campaign"
	"ftb/internal/obs"
	"ftb/internal/telemetry"
	"ftb/internal/trace"
)

// ListeningPrefix is the marker a worker process prints on stdout once
// it is serving, followed by its bound address. Self-host spawning scans
// for it to learn the ephemeral port of each forked worker.
const ListeningPrefix = "ftb-worker-listening "

// maxLeaseExperiments bounds a single /v1/run request so a buggy or
// hostile coordinator cannot make one lease allocate the whole campaign.
const maxLeaseExperiments = 1 << 22

// maxRunResponseBytes bounds the coordinator's decode of one /v1/run
// response, so a buggy or hostile worker cannot make it buffer without
// limit: the base64 outcome bytes of a lease of maxLeaseExperiments,
// plus 64 MiB for the shard's telemetry snapshot and span timeline (a
// lease's span recorder holds at most ~135k spans, each a few hundred
// bytes of JSON).
const maxRunResponseBytes = 4*(maxLeaseExperiments+2)/3 + 64<<20

// WorkerConfig describes the one program a worker serves injections for.
type WorkerConfig struct {
	// Factory creates independent program instances (one per engine
	// worker of each shard run). Required.
	Factory func() trace.Program
	// Golden is the program's fault-free run; computed from Factory when
	// nil.
	Golden *trace.GoldenRun
	// Name is the program name reported on /v1/info; defaults to the
	// factory instance's Name.
	Name string
	// Width is the IEEE-754 width of the program's data elements
	// (default 64).
	Width int
	// Procs caps the engine parallelism of each shard run (default
	// GOMAXPROCS).
	Procs int
	// Observer, when non-nil, receives progress events from shard runs
	// (e.g. the -serve /progress endpoint).
	Observer campaign.Observer
	// Collector accumulates this worker process's lifetime telemetry
	// across all shards, served on /v1/telemetry and /metrics (and by
	// the ftbcli -serve endpoints when shared with them). Defaults to a
	// fresh collector. Each shard additionally returns its own private
	// snapshot to the coordinator.
	Collector *telemetry.Collector
	// Logger receives lease lifecycle events (Debug) and rejected
	// requests (Warn). Nil discards.
	Logger *slog.Logger
}

// Worker serves fault-injection leases for one program over HTTP.
type Worker struct {
	cfg   WorkerConfig
	crc   uint32
	info  Info
	start time.Time

	// runs serializes shard execution: each shard already saturates
	// Procs goroutines, so concurrent leases would only oversubscribe
	// the machine and stretch every lease toward its timeout.
	runs sync.Mutex
}

// NewWorker validates the configuration and computes the golden run (if
// not supplied) and its fingerprint.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Factory == nil {
		return nil, errors.New("cluster: WorkerConfig.Factory is required")
	}
	if cfg.Width == 0 {
		cfg.Width = 64
	}
	if cfg.Width != 32 && cfg.Width != 64 {
		return nil, fmt.Errorf("cluster: width %d must be 32 or 64", cfg.Width)
	}
	if cfg.Procs <= 0 {
		cfg.Procs = runtime.GOMAXPROCS(0)
	}
	if cfg.Golden == nil {
		g, err := trace.Golden(cfg.Factory())
		if err != nil {
			return nil, err
		}
		cfg.Golden = g
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Factory().Name()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Collector == nil {
		cfg.Collector = telemetry.New()
	}
	w := &Worker{cfg: cfg, crc: GoldenCRC(cfg.Golden), start: time.Now()}
	w.info = Info{
		Program:   cfg.Name,
		Sites:     cfg.Golden.Sites(),
		Width:     cfg.Width,
		GoldenCRC: w.crc,
		Procs:     cfg.Procs,
	}
	return w, nil
}

// Info returns the identity served on /v1/info.
func (w *Worker) Info() Info { return w.info }

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pathHealth, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(rw, "ok\n")
	})
	mux.HandleFunc(pathInfo, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, w.info)
	})
	mux.HandleFunc(pathRun, w.handleRun)
	mux.HandleFunc(pathTelemetry, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, w.Status())
	})
	mux.HandleFunc(pathMetrics, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteBuildInfo(rw, map[string]string{
			"program":    w.info.Program,
			"golden_crc": fmt.Sprintf("%08x", w.crc),
		})
		w.cfg.Collector.Snapshot().WritePrometheus(rw)
	})
	return mux
}

// Status is the worker's live telemetry snapshot, served on
// /v1/telemetry and aggregated fleet-wide by FetchFleet.
func (w *Worker) Status() WorkerStatus {
	snap := w.cfg.Collector.Snapshot()
	return WorkerStatus{
		Info:          w.info,
		UptimeSeconds: time.Since(w.start).Seconds(),
		Telemetry:     &snap,
	}
}

// writeJSON encodes v with the given status.
func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

// reject logs and returns a structured error response.
func (w *Worker) reject(rw http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	w.cfg.Logger.Warn("lease rejected", "err", msg)
	writeJSON(rw, status, errorResponse{Error: msg})
}

// handleRun executes one lease. The request context doubles as the lease
// lifetime: when the coordinator times the lease out (or dies), the
// server cancels the context and the shard run aborts within one batch
// instead of burning cores on an orphaned lease.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.reject(rw, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req runRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		w.reject(rw, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.GoldenCRC != w.crc {
		w.reject(rw, http.StatusConflict, "golden fingerprint %#x does not match worker %#x (different program or input)", req.GoldenCRC, w.crc)
		return
	}
	if req.Width != w.cfg.Width {
		w.reject(rw, http.StatusConflict, "width %d does not match worker %d", req.Width, w.cfg.Width)
		return
	}
	model, err := bits.ParseFaultModel(req.Fault)
	if err != nil {
		w.reject(rw, http.StatusBadRequest, "fault model: %v", err)
		return
	}
	if err := model.Validate(w.cfg.Width); err != nil {
		w.reject(rw, http.StatusBadRequest, "fault model: %v", err)
		return
	}
	if pop := model.BitsPerSite(w.cfg.Width); req.Bits < 1 || req.Bits > pop {
		w.reject(rw, http.StatusBadRequest, "bits %d outside [1, %d] (fault model %q)", req.Bits, pop, req.Fault)
		return
	}
	if req.Tol <= 0 {
		w.reject(rw, http.StatusBadRequest, "tolerance %g must be positive", req.Tol)
		return
	}
	n := w.cfg.Golden.Sites() * req.Bits
	if req.Lo < 0 || req.Hi <= req.Lo || req.Hi > n {
		w.reject(rw, http.StatusBadRequest, "lease range [%d, %d) outside [0, %d)", req.Lo, req.Hi, n)
		return
	}
	if req.Hi-req.Lo > maxLeaseExperiments {
		w.reject(rw, http.StatusBadRequest, "lease size %d above limit %d", req.Hi-req.Lo, maxLeaseExperiments)
		return
	}

	w.runs.Lock()
	defer w.runs.Unlock()
	start := time.Now()
	w.cfg.Logger.Debug("lease start", "lease", req.Lease, "lo", req.Lo, "hi", req.Hi, "bits", req.Bits)

	pairs := make([]campaign.Pair, 0, req.Hi-req.Lo)
	for i := req.Lo; i < req.Hi; i++ {
		pairs = append(pairs, campaign.PairAt(i, req.Bits))
	}
	// Each shard runs with a private collector so the response snapshot
	// covers exactly this lease; the worker's lifetime collector absorbs
	// it afterwards. Span recording likewise: a private recorder per
	// lease whose cut rides back in the response with worker-local IDs,
	// for the coordinator to graft under its lease span.
	col := telemetry.New()
	var spans *obs.Recorder
	if req.SpanSample > 0 {
		spans = obs.NewRecorder()
	}
	recs := make([]campaign.Record, len(pairs))
	err = campaign.RunPairsInPhase(campaign.Config{
		Factory:   w.cfg.Factory,
		Golden:    w.cfg.Golden,
		Tol:       req.Tol,
		Bits:      req.Bits,
		Width:     w.cfg.Width,
		Model:     model,
		Workers:   w.cfg.Procs,
		Context:   r.Context(),
		Observer:  w.cfg.Observer,
		Collector: col,
		Logger:    w.cfg.Logger,
		// Leases are contiguous index ranges of the site-major sample
		// space, so a shard's engine workers walk sites in order and the
		// per-worker snapshot cache is reused within the lease exactly as
		// in a single-process campaign. Non-Snapshotter factories fall
		// back to vanilla execution.
		Replay:     true,
		Spans:      spans,
		SpanSample: req.SpanSample,
	}, pairs, "exhaustive", recs)
	if err != nil {
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			// The coordinator hung up; the status is never seen, but
			// log the abort as what it was.
			status = http.StatusRequestTimeout
		}
		w.reject(rw, status, "lease [%d, %d): %v", req.Lo, req.Hi, err)
		return
	}
	kinds := make([]byte, len(recs))
	for i, rec := range recs {
		kinds[i] = byte(rec.Kind)
	}
	snap := col.Snapshot()
	if w.cfg.Collector != nil {
		if err := w.cfg.Collector.Absorb(snap); err != nil {
			w.cfg.Logger.Warn("absorb shard telemetry", "err", err)
		}
	}
	w.cfg.Logger.Debug("lease done", "lease", req.Lease, "lo", req.Lo, "hi", req.Hi,
		"elapsed", time.Since(start))
	writeJSON(rw, http.StatusOK, runResponse{
		Lease:     req.Lease,
		Lo:        req.Lo,
		Hi:        req.Hi,
		Kinds:     kinds,
		Telemetry: &snap,
		Spans:     spans.Cut(),
	})
}

// Serve runs the worker on ln until ctx is cancelled, announcing the
// bound address on announce (the self-host marker line) when non-nil.
// Shutdown is bounded: in-flight leases get 3 seconds to drain.
func (w *Worker) Serve(ctx context.Context, ln net.Listener, announce io.Writer) error {
	srv := &http.Server{Handler: w.Handler(), BaseContext: func(net.Listener) context.Context { return ctx }}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	if announce != nil {
		fmt.Fprintf(announce, "%s%s\n", ListeningPrefix, ln.Addr())
	}
	w.cfg.Logger.Debug("worker serving", "addr", ln.Addr().String(), "program", w.info.Program,
		"sites", w.info.Sites, "procs", w.cfg.Procs)
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(shctx)
		<-served
		return ctx.Err()
	}
}
