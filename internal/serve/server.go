// Package serve implements pythia-serve's HTTP surface: the versioned /v1
// prediction API, deprecated unversioned aliases, and the runtime
// observability endpoints (/metrics in Prometheus text format, /stats as
// JSON). The cmd/pythia-serve binary is a thin flag-parsing wrapper around
// this package, which keeps the whole surface testable with httptest.
//
// API contract:
//
//	POST /v1/predict          QuerySpec JSON → predicted pages + matched workload
//	POST /v1/explain          QuerySpec JSON → plan display + Algorithm 2 tokens
//	GET  /v1/healthz          liveness + model inventory
//	POST /v1/admin/reload     zero-downtime model swap from a snapshot file
//	GET  /v1/admin/replicas   replica topology (generation, queues, breakers, caches)
//	GET  /metrics             Prometheus text exposition
//	GET  /stats               JSON statistics snapshot
//
// The unversioned aliases of every /v1 endpoint still work but answer with a
// Deprecation header pointing at their /v1 successors.
//
// Every non-200 response carries a typed JSON error envelope:
//
//	{"error": {"code": "invalid_spec", "message": "..."}}
//
// Handlers honor the request context: a prediction for a client that has
// disconnected is abandoned rather than computed to completion.
//
// The server degrades rather than piles up: request bodies are capped (413),
// in-flight model requests are bounded with load shedding (503 +
// Retry-After), inference runs under a per-request timeout (504), and a
// consecutive-error circuit breaker trips the model path to the fallback
// answer, half-opening after a cooldown. All of it is visible on /metrics
// and /stats.
//
// The model tier behind the handlers is an Inferencer: a Single instance by
// default, or — with Options.Replicas > 1 — a Pool of independent model
// replicas behind a consistent-hash router keyed on plan fingerprints, with
// per-replica bounded work queues and snapshot-based zero-downtime model
// swap (POST /v1/admin/reload, or SIGHUP in pythia-serve).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/storage"
)

// Error codes of the JSON error envelope.
const (
	CodeMethodNotAllowed  = "method_not_allowed"
	CodeInvalidSpec       = "invalid_spec"
	CodePlanFailed        = "plan_failed"
	CodeClientGone        = "client_disconnected"
	CodeTooLarge          = "body_too_large"
	CodeOverloaded        = "overloaded"
	CodeDeadline          = "deadline_exceeded"
	CodeModelError        = "model_error"
	CodeUnknownPrediction = "unknown_prediction"
)

// StatusClientClosedRequest mirrors nginx's 499: the client disconnected
// before the response was produced. Nothing is on the wire, but the status
// is visible in metrics.
const StatusClientClosedRequest = 499

// Options are the server's resilience and topology knobs. The zero value of
// each field selects a sensible default; a negative value disables that
// protection entirely (useful in tests and trusted deployments) unless a
// field documents otherwise. Call Normalize to resolve the convention and
// validate combinations; New does it for you.
type Options struct {
	// RequestTimeout bounds model inference per request; an expired budget
	// answers 504 deadline_exceeded. Default 5s.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served model requests (predict and
	// explain) across the whole server; excess load is shed with 503 +
	// Retry-After. Default 64.
	MaxInFlight int
	// MaxBodyBytes caps the request body; larger posts answer 413. Default
	// 1 MiB.
	MaxBodyBytes int64
	// BreakerThreshold is the consecutive model-error count that trips a
	// replica's circuit breaker to the fallback path. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before half-opening
	// to trial requests. Default 10s. Disabling the cooldown while the
	// breaker is enabled is rejected by Normalize (the breaker could never
	// half-open).
	BreakerCooldown time.Duration
	// Fault, when non-nil, injects transient model errors at the injector's
	// Serve site — the deterministic chaos hook the breaker tests and drills
	// run against. Shared across replicas under one lock.
	Fault *fault.Injector
	// CacheEntries bounds each replica's plan-fingerprint prediction cache;
	// identical plans answer from it without running inference. Default 4096
	// entries per replica; negative disables caching.
	CacheEntries int
	// Quantize switches every trained model to int8 inference at server
	// construction (per-tensor symmetric weights; see nn.QuantizeMat).
	// Irreversible for the process lifetime of the models.
	Quantize bool
	// Replicas is the number of independent model replicas behind the
	// consistent-hash router. 1 (the default) serves a Single instance with
	// no routing layer; N > 1 snapshots the trained system and decodes N-1
	// clones, so forward passes on distinct replicas run truly in parallel.
	// Negative is rejected by Normalize.
	Replicas int
	// QueueDepth bounds each replica's concurrently admitted requests;
	// overflow is shed with 503 before it queues behind a busy model.
	// Default 32 per replica; negative disables the per-replica bound
	// (MaxInFlight still applies globally).
	QueueDepth int
	// SnapshotPath is the default snapshot file for POST /v1/admin/reload
	// and SIGHUP reloads (a pythia.System.Save bundle). Empty means reloads
	// must name a path explicitly.
	SnapshotPath string
	// QuarantineThreshold is the failure count, within a replica's sliding
	// outcome window, that quarantines the replica: the ring fails its shard
	// over to successors and only backoff-gated probes reach it until probes
	// succeed. Default 5 (half that marks the replica degraded); negative
	// disables health tracking entirely.
	QuarantineThreshold int
	// QuarantineBackoff is the initial delay before a quarantined replica is
	// probed; each failed probe doubles it (capped at 16×). Default 1s.
	// Disabling the backoff while health tracking is enabled is rejected by
	// Normalize (a quarantined replica could never be probed).
	QuarantineBackoff time.Duration
	// QuarantineProbes is how many consecutive probe successes re-admit a
	// quarantined replica to normal routing. Default 3.
	QuarantineProbes int
	// MaxFailovers bounds the failover cascade: how many ring successors a
	// request may try past its owning replica when the owner is quarantined,
	// saturated, or faulting. Default 2; negative disables failover (requests
	// fail exactly as pre-pool: 503 on saturation, 500 on faults).
	MaxFailovers int
	// HedgeAfter arms request hedging: when a pool prediction has waited this
	// long (or the pool's observed p95 latency, whichever is larger), a
	// second attempt launches on the ring successor and the first response
	// wins, canceling the loser. Zero (the default) disables hedging — this
	// field is opt-in, not zero=default. Requires Replicas > 1; negative is
	// rejected by Normalize.
	HedgeAfter time.Duration
}

// Normalize resolves the zero=default / negative=disable convention into
// effective values and rejects contradictory combinations, mirroring the
// pythia.Config and replay.Config convention. It is what New applies;
// callers that want to fail gracefully (or log the resolved options, as
// pythia-serve does) call it themselves first.
//
// Normalize resolves "disabled" to 0, so it is not idempotent for disabled
// fields — normalize the original options, not an already-normalized copy.
func (o Options) Normalize() (Options, error) {
	if o.Replicas < 0 {
		return o, fmt.Errorf("serve: Replicas must be >= 0, got %d", o.Replicas)
	}
	if o.BreakerThreshold > 0 && o.BreakerCooldown < 0 {
		return o, fmt.Errorf("serve: BreakerThreshold %d with disabled BreakerCooldown: an open breaker could never half-open (disable the breaker with a negative threshold instead)", o.BreakerThreshold)
	}
	if o.QuarantineThreshold > 0 && o.QuarantineBackoff < 0 {
		return o, fmt.Errorf("serve: QuarantineThreshold %d with disabled QuarantineBackoff: a quarantined replica could never be probed (disable health tracking with a negative threshold instead)", o.QuarantineThreshold)
	}
	if o.HedgeAfter < 0 {
		return o, fmt.Errorf("serve: negative HedgeAfter %v", o.HedgeAfter)
	}
	if o.HedgeAfter > 0 && o.Replicas >= 0 && o.Replicas <= 1 {
		return o, fmt.Errorf("serve: HedgeAfter %v requires Replicas > 1: a single replica has no successor to hedge on", o.HedgeAfter)
	}
	def := func(v, d time.Duration) time.Duration {
		if v == 0 {
			return d
		}
		return max(v, 0)
	}
	o.RequestTimeout = def(o.RequestTimeout, 5*time.Second)
	o.BreakerCooldown = def(o.BreakerCooldown, 10*time.Second)
	switch {
	case o.MaxInFlight == 0:
		o.MaxInFlight = 64
	case o.MaxInFlight < 0:
		o.MaxInFlight = 0
	}
	switch {
	case o.MaxBodyBytes == 0:
		o.MaxBodyBytes = 1 << 20
	case o.MaxBodyBytes < 0:
		o.MaxBodyBytes = 0
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = 5
	case o.BreakerThreshold < 0:
		o.BreakerThreshold = 0
	}
	switch {
	case o.CacheEntries == 0:
		o.CacheEntries = 4096
	case o.CacheEntries < 0:
		o.CacheEntries = 0
	}
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = 32
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	switch {
	case o.QuarantineThreshold == 0:
		o.QuarantineThreshold = 5
	case o.QuarantineThreshold < 0:
		o.QuarantineThreshold = 0
	}
	o.QuarantineBackoff = def(o.QuarantineBackoff, time.Second)
	switch {
	case o.QuarantineProbes == 0:
		o.QuarantineProbes = 3
	case o.QuarantineProbes < 0:
		o.QuarantineProbes = 1
	}
	switch {
	case o.MaxFailovers == 0:
		o.MaxFailovers = 2
	case o.MaxFailovers < 0:
		o.MaxFailovers = 0
	}
	return o, nil
}

// Server answers prediction requests over an Inferencer — a Single trained
// instance or a replica Pool. The Server owns the HTTP concerns (decoding,
// planning, global shedding, timeouts, response rendering, observability);
// the Inferencer owns everything that touches a model.
type Server struct {
	db      *catalog.Database
	inf     Inferencer
	metrics *Metrics
	opts    Options

	// fgate is the chaos-injection gate shared with the Inferencer's
	// replicas when the server built it (nil for NewWithInferencer).
	fgate *faultGate

	// tracker correlates served predictions with their /v1/feedback reports;
	// qwin is the server-wide sliding window of feedback scores (per-replica
	// windows live on the instances). qmu guards qwin only.
	tracker predTracker
	qmu     sync.Mutex
	qwin    *quality.Window

	inflight atomic.Int64
	draining atomic.Bool
}

// New assembles a server over a database and its trained system, building a
// Single instance or a replica Pool from Options.Replicas. A nil metrics hub
// gets a fresh one (with its own event counters); pass the hub whose
// Events() you wired into the system's Config.Recorder to surface
// workload-matching and replay events on /metrics. Options are normalized
// (see Options.Normalize); invalid combinations are errors.
func New(db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) (*Server, error) {
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	fgate := &faultGate{inj: norm.Fault}
	var inf Inferencer
	if norm.Replicas > 1 {
		pool, err := newPool(db, sys, metrics, fgate, norm)
		if err != nil {
			return nil, err
		}
		inf = pool
	} else {
		inf = newSingle(db, sys, metrics, fgate, norm)
	}
	return &Server{db: db, inf: inf, metrics: metrics, opts: norm, fgate: fgate,
		qwin: quality.NewWindow(qualityWindowSize)}, nil
}

// NewWithInferencer assembles a server over an externally built Inferencer —
// the seam server tests use to stub inference without training anything, and
// the hook for alternative model tiers. Options are normalized the same way
// as New, but topology fields (Replicas, Quantize) are the Inferencer's
// business and ignored here.
func NewWithInferencer(db *catalog.Database, inf Inferencer, metrics *Metrics, opts Options) (*Server, error) {
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	return &Server{db: db, inf: inf, metrics: metrics, opts: norm,
		qwin: quality.NewWindow(qualityWindowSize)}, nil
}

// Close releases the server's resources. The model tier starts no
// goroutine that outlives its request, so there is nothing to release today;
// Close stays the one shutdown call, safe to call more than once.
func (s *Server) Close() {}

// Options returns the server's resolved effective options.
func (s *Server) Options() Options { return s.opts }

// Inferencer returns the model tier behind the server.
func (s *Server) Inferencer() Inferencer { return s.inf }

// SetDraining flips the server's draining flag: /v1/healthz answers 503 so
// load balancers stop routing here while in-flight requests finish (the
// graceful-shutdown handshake cmd/pythia-serve performs on SIGTERM).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics returns the server's metrics hub.
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetFault swaps the chaos injector on a live server (nil clears it).
// Production arms Options.Fault at construction; chaos drills (tests,
// cmd/pythia-load's -chaos-* flags) use this to clear or retarget injected
// faults mid-run so recovery is observable.
func (s *Server) SetFault(inj *fault.Injector) { s.fgate.set(inj) }

// inst returns the current first replica for tests that reach into the
// model path (cache, breaker state). Nil for stubbed Inferencers.
func (s *Server) inst() *instance {
	switch v := s.inf.(type) {
	case *Single:
		return v.cur.Load()
	case *Pool:
		return v.cur.Load().instances[0]
	}
	return nil
}

// Handler builds the full HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	versioned := map[string]http.HandlerFunc{
		"predict":        s.shed(s.handlePredict),
		"explain":        s.shed(s.handleExplain),
		"feedback":       s.handleFeedback,
		"healthz":        s.handleHealth,
		"admin/reload":   s.handleReload,
		"admin/replicas": s.handleReplicas,
	}
	for name, h := range versioned {
		mux.HandleFunc("/v1/"+name, s.metrics.instrument(name, h))
		mux.HandleFunc("/"+name, s.metrics.instrument(name, deprecated(name, h)))
	}
	mux.HandleFunc("/metrics", s.metrics.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/stats", s.metrics.instrument("stats", s.handleStats))
	return mux
}

// deprecated wraps an unversioned alias: same behaviour, plus RFC 8594
// deprecation signalling toward the /v1 successor.
func deprecated(name string, h http.HandlerFunc) http.HandlerFunc {
	successor := "/v1/" + name
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// shed wraps a model-path handler with bounded-concurrency load shedding:
// past MaxInFlight, requests are refused immediately with 503 + Retry-After
// instead of queueing behind a saturated model.
func (s *Server) shed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if limit := int64(s.opts.MaxInFlight); limit > 0 {
			if s.inflight.Add(1) > limit {
				s.inflight.Add(-1)
				s.metrics.sheds.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, CodeOverloaded,
					fmt.Sprintf("server is at its in-flight limit (%d); retry shortly", limit))
				return
			}
			defer s.inflight.Add(-1)
		}
		h(w, r)
	}
}

type errorEnvelope struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(errorEnvelope{Error: errorInfo{Code: code, Message: msg}}); err != nil {
		log.Printf("serve: encoding error response: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

type predictResponse struct {
	// PredictionID correlates this answer with a later POST /v1/feedback
	// report; it stays resolvable until trackSlots newer predictions have
	// been served.
	PredictionID string     `json:"prediction_id,omitempty"`
	Workload     string     `json:"workload"`
	Fallback     bool       `json:"fallback"`
	Cached       bool       `json:"cached,omitempty"`   // answered from the prediction cache (zero inference)
	Degraded     string     `json:"degraded,omitempty"` // why the model path was skipped (e.g. breaker_open)
	Replica      int        `json:"replica"`            // serving replica index (-1 = never routed)
	Generation   uint64     `json:"generation"`         // model generation that answered
	Pages        []pageJSON `json:"pages"`
	PageCount    int        `json:"page_count"`
	ElapsedMS    float64    `json:"elapsed_ms"`
	Plan         string     `json:"plan,omitempty"`
	Tokens       []string   `json:"tokens,omitempty"`
}

type pageJSON struct {
	Object string `json:"object"`
	Page   uint32 `json:"page"`
}

// decodeQuery parses and plans the posted QuerySpec, writing the typed
// error envelope on any failure.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (plan.Query, *plan.Node, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST a QuerySpec JSON document")
		return plan.Query{}, nil, false
	}
	body := r.Body
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, body, s.opts.MaxBodyBytes)
	}
	qs, err := spec.Decode(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return plan.Query{}, nil, false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return plan.Query{}, nil, false
	}
	q, err := qs.ToQuery()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return plan.Query{}, nil, false
	}
	root, err := plan.NewPlanner(s.db).Plan(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodePlanFailed, err.Error())
		return plan.Query{}, nil, false
	}
	return q, root, true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q, root, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	start := time.Now()
	pred, err := s.inf.Predict(ctx, q, root)
	if err != nil {
		s.writePredictError(w, err)
		return
	}
	resp := predictResponse{
		Workload:   pred.Workload,
		Fallback:   pred.Fallback,
		Cached:     pred.Cached,
		Degraded:   pred.Degraded,
		Replica:    pred.Replica,
		Generation: pred.Generation,
	}
	s.writePages(&resp, pred.Pages)
	resp.PageCount = len(resp.Pages)
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	resp.PredictionID = s.tracker.note(pred.Workload, pred.Replica, pred.Pages)
	s.metrics.observePrediction(resp.PageCount, resp.Fallback)
	writeJSON(w, resp)
}

// feedbackRequest is the POST /v1/feedback body: a prediction id from a
// predict response plus the pages the query's execution actually touched
// (same shape as the predict response's pages array).
type feedbackRequest struct {
	PredictionID string     `json:"prediction_id"`
	Pages        []pageJSON `json:"pages"`
}

// feedbackResponse echoes the score computed from one feedback report.
type feedbackResponse struct {
	PredictionID  string  `json:"prediction_id"`
	Workload      string  `json:"workload,omitempty"`
	Replica       int     `json:"replica"`
	Predicted     int     `json:"predicted"`
	Actual        int     `json:"actual"`
	TruePositives int     `json:"true_positives"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	WastedRatio   float64 `json:"wasted_ratio"`
}

// handleFeedback scores a served prediction against the pages its query
// actually touched: the online ground-truth loop that makes serve-tier
// precision and recall measurable without replaying anything. The score
// lands in the server-wide quality window, the serving replica's window, the
// obs event stream (obs.QualityScored), and the span trace.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST a feedback JSON document")
		return
	}
	body := r.Body
	if s.opts.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, body, s.opts.MaxBodyBytes)
	}
	var req feedbackRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	actual := make([]storage.PageID, 0, len(req.Pages))
	for _, p := range req.Pages {
		obj := s.db.Registry.LookupName(p.Object)
		if obj == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidSpec,
				fmt.Sprintf("unknown object %q in feedback pages", p.Object))
			return
		}
		actual = append(actual, storage.PageID{Object: obj.ID, Page: storage.PageNum(p.Page)})
	}
	rec, ok := s.tracker.take(req.PredictionID)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownPrediction,
			fmt.Sprintf("prediction %q is unknown, already scored, or expired", req.PredictionID))
		return
	}
	sc := quality.ScoreSets(rec.pages, actual)
	s.qmu.Lock()
	s.qwin.Add(sc)
	s.qmu.Unlock()
	if ins := s.instByID(rec.replica); ins != nil {
		ins.feedback(sc)
	}
	s.metrics.events.Record(obs.Event{Kind: obs.QualityScored, Query: obs.NoQuery})
	s.metrics.markQuality()
	writeJSON(w, feedbackResponse{
		PredictionID:  req.PredictionID,
		Workload:      rec.workload,
		Replica:       rec.replica,
		Predicted:     sc.Predicted,
		Actual:        sc.Actual,
		TruePositives: sc.TruePos,
		Precision:     sc.Precision(),
		Recall:        sc.Recall(),
		WastedRatio:   sc.WastedRatio(),
	})
}

// instByID resolves a replica id to the serving instance carrying it (nil
// for stubbed Inferencers, a replica id from a superseded generation, or a
// pool-level fallback that never routed).
func (s *Server) instByID(id int) *instance {
	switch v := s.inf.(type) {
	case *Single:
		if ins := v.cur.Load(); ins != nil && ins.id == id {
			return ins
		}
	case *Pool:
		for _, ins := range v.cur.Load().instances {
			if ins.id == id {
				return ins
			}
		}
	}
	return nil
}

// writePredictError maps Inferencer sentinel errors onto the HTTP error
// contract: replica saturation → 503, injected model faults → 500, expired
// budgets → 504, disconnected clients → 499.
func (s *Server) writePredictError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		s.metrics.sheds.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeOverloaded,
			"routed replica's work queue is full; retry shortly")
	case errors.Is(err, errModelFault):
		writeError(w, http.StatusInternalServerError, CodeModelError, "transient model error (injected)")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeDeadline, "inference exceeded the request timeout")
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, CodeClientGone, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeModelError, err.Error())
	}
}

// writePages resolves object names and appends the page set to the response.
func (s *Server) writePages(resp *predictResponse, pages []storage.PageID) {
	for _, p := range pages {
		name := fmt.Sprint(p.Object)
		if obj := s.db.Registry.Lookup(p.Object); obj != nil {
			name = obj.Name
		}
		resp.Pages = append(resp.Pages, pageJSON{Object: name, Page: uint32(p.Page)})
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	_, root, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, StatusClientClosedRequest, CodeClientGone, err.Error())
		return
	}
	e := s.inf.Explain(root)
	writeJSON(w, predictResponse{Plan: e.Plan, Tokens: e.Tokens, Replica: -1})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	type workloadInfo struct {
		Name   string `json:"name"`
		Models int    `json:"models"`
		Params int    `json:"params"`
	}
	var info []workloadInfo
	for _, tw := range s.inf.Workloads() {
		info = append(info, workloadInfo{
			Name: tw.Name, Models: len(tw.Pred.Models()), Params: tw.Pred.ParamCount(),
		})
	}
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Draining: answer 503 so load balancers stop routing here while
		// in-flight requests finish.
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"workloads":      info,
		"uptime_seconds": s.metrics.Uptime().Seconds(),
	}); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writePrometheus(w)
}

// statsResponse is the JSON shape of /stats.
type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// UptimeMonotonicSeconds is the high-water uptime reading: it never
	// decreases between scrapes even when the wall clock behind
	// UptimeSeconds steps backward.
	UptimeMonotonicSeconds float64           `json:"uptime_monotonic_seconds"`
	Build                  BuildInfo         `json:"build"`
	Requests               []requestRow      `json:"requests"`
	Latency                []latencyRow      `json:"latency"`
	Predictions            uint64            `json:"predictions"`
	Fallbacks              uint64            `json:"fallbacks"`
	FallbackRate           float64           `json:"fallback_rate"`
	PredictedPages         uint64            `json:"predicted_pages"`
	AvgSetSize             float64           `json:"avg_set_size"`
	Events                 map[string]uint64 `json:"events"`
	BufferHitRatio         float64           `json:"buffer_hit_ratio"`
	OSHitRatio             float64           `json:"oscache_hit_ratio"`
	Shed                   uint64            `json:"requests_shed"`
	Timeouts               uint64            `json:"inference_timeouts"`
	Failovers              uint64            `json:"replica_failovers"`
	Hedges                 uint64            `json:"request_hedges"`
	HedgeWins              uint64            `json:"request_hedge_wins"`
	BreakerState           string            `json:"breaker_state"`
	HealthState            string            `json:"health_state"`
	Draining               bool              `json:"draining"`
	Generation             uint64            `json:"generation"`
	Swaps                  uint64            `json:"swaps"`
	Replicas               []ReplicaStatus   `json:"replicas"`
	PredCache              *predCacheStats   `json:"predcache,omitempty"`
	// Quality aggregates the feedback-scored prediction quality server-wide;
	// per-replica views are in the replicas rows. Always present — zeros mean
	// "no feedback yet", and rendering the block unconditionally keeps the
	// /stats shape configuration-independent.
	Quality qualityStats `json:"quality"`
	// Drift aggregates the replicas' drift detectors: worst state, max score,
	// summed counters.
	Drift driftAggStats `json:"drift"`
	// Baseline identifies the drift baseline the serving snapshot carries
	// (absent when the system is untrained, predates baselines, or the
	// Inferencer is stubbed).
	Baseline *corepythia.BaselineID `json:"baseline,omitempty"`
}

// qualityStats is the /stats view of the server-wide feedback window.
type qualityStats struct {
	// Scored is the lifetime count of feedback reports scored.
	Scored uint64 `json:"scored"`
	// Window is how many scores the sliding window currently holds.
	Window int `json:"window"`
	// Precision and Recall are micro-averaged over the window (0 when empty).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// WastedRatio is 1 − precision over the window.
	WastedRatio float64 `json:"wasted_ratio"`
}

// driftAggStats is the /stats fleet view of drift: the single-state summary
// a dashboard alerts on, aggregated across replicas the same way the breaker
// and health gauges are.
type driftAggStats struct {
	State       string  `json:"state"`
	Score       float64 `json:"score"`
	Evaluations uint64  `json:"evaluations"`
	Warnings    uint64  `json:"warnings"`
	Alarms      uint64  `json:"alarms"`
	Recoveries  uint64  `json:"recoveries"`
}

// aggregateDrift folds the replicas' drift snapshots into the fleet view:
// worst state and max score (a healthy replica must not mask an alarming
// one), summed counters.
func aggregateDrift(st InfStatus) driftAggStats {
	agg := driftAggStats{State: quality.DriftOK.String()}
	worst := 0
	for _, r := range st.Replicas {
		if r.Drift.StateValue > worst {
			worst = r.Drift.StateValue
		}
		if r.Drift.Score > agg.Score {
			agg.Score = r.Drift.Score
		}
		agg.Evaluations += r.Drift.Evaluations
		agg.Warnings += r.Drift.Warnings
		agg.Alarms += r.Drift.Alarms
		agg.Recoveries += r.Drift.Recoveries
	}
	agg.State = quality.DriftState(worst).String()
	return agg
}

// qualitySnapshot reads the server-wide feedback window.
func (s *Server) qualitySnapshot() qualityStats {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	q := qualityStats{
		Scored:    s.qwin.Seen(),
		Window:    s.qwin.Len(),
		Precision: s.qwin.Precision(),
		Recall:    s.qwin.Recall(),
	}
	if q.Window > 0 {
		q.WastedRatio = 1 - q.Precision
	}
	return q
}

// predCacheStats is the /stats view of the prediction caches, summed across
// replicas.
type predCacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// worstBreakerState returns the most-degraded breaker state across replicas
// (open > half_open > closed) — the single-gauge view a fleet dashboard
// alerts on; per-replica states are in the replicas rows.
func worstBreakerState(st InfStatus) (value int, name string) {
	for _, r := range st.Replicas {
		if r.BreakerValue > value {
			value = r.BreakerValue
		}
	}
	return value, breakerStateNames[value]
}

// worstHealthState returns the most-degraded replica health state
// (quarantined > probation > degraded > healthy), the fleet-dashboard
// companion gauge to worstBreakerState.
func worstHealthState(st InfStatus) (value int, name string) {
	for _, r := range st.Replicas {
		if r.HealthValue > value {
			value = r.HealthValue
		}
	}
	return value, healthStateNames[value]
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	m := s.metrics
	snap := m.events.Snapshot()
	st := s.inf.Status()
	_, breakerName := worstBreakerState(st)
	_, healthName := worstHealthState(st)
	resp := statsResponse{
		UptimeSeconds:          m.Uptime().Seconds(),
		UptimeMonotonicSeconds: m.UptimeMonotonic().Seconds(),
		Build:                  m.Build(),
		Requests:               m.snapshotRequests(),
		Latency:                m.snapshotLatency(),
		Predictions:            m.predictions.Load(),
		Fallbacks:              m.fallbacks.Load(),
		PredictedPages:         m.predictedPages.Load(),
		Events:                 snap.Map(),
		BufferHitRatio:         snap.HitRatio(obs.BufferHit, obs.BufferMiss),
		OSHitRatio:             snap.HitRatio(obs.OSCacheHit, obs.OSCacheMiss),
		Shed:                   m.sheds.Load(),
		Timeouts:               m.timeouts.Load(),
		Failovers:              m.failovers.Load(),
		Hedges:                 m.hedges.Load(),
		HedgeWins:              m.hedgeWins.Load(),
		BreakerState:           breakerName,
		HealthState:            healthName,
		Draining:               s.draining.Load(),
		Generation:             st.Generation,
		Swaps:                  st.Swaps,
		Replicas:               st.Replicas,
		Quality:                s.qualitySnapshot(),
		Drift:                  aggregateDrift(st),
	}
	if b, ok := s.inf.(baseliner); ok {
		resp.Baseline = b.BaselineID()
	}
	if resp.Predictions > 0 {
		resp.FallbackRate = float64(resp.Fallbacks) / float64(resp.Predictions)
		resp.AvgSetSize = float64(resp.PredictedPages) / float64(resp.Predictions)
	}
	if s.opts.CacheEntries > 0 {
		pc := &predCacheStats{}
		for _, r := range st.Replicas {
			pc.Entries += r.CacheEntries
			pc.Capacity += r.CacheCapacity
			pc.Hits += r.CacheHits
			pc.Misses += r.CacheMisses
			pc.Evictions += r.CacheEvictions
		}
		resp.PredCache = pc
	}
	writeJSON(w, resp)
}
