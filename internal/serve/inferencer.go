package serve

import (
	"context"
	"errors"
	"io"
	"sync"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/storage"
)

// baseliner is the optional Inferencer extension exposing the serving
// system's drift-baseline identity. Single and Pool implement it; stubbed
// test Inferencers need not — /stats then omits the baseline block, exactly
// like an untrained system.
type baseliner interface {
	BaselineID() *corepythia.BaselineID
}

// Inferencer is the seam between the HTTP surface and the model tier. The
// Server decodes and plans requests, applies global shedding and timeouts,
// and renders responses; everything that touches a trained model — matching,
// caching, the circuit breaker, and inference itself — happens
// behind this interface. Two production implementations exist: Single (one
// model instance, the pre-pool deployment shape) and Pool (N independent
// replicas behind a consistent-hash router). Tests stub it to exercise the
// HTTP surface without training anything.
type Inferencer interface {
	// Predict answers one decoded, planned query. Sentinel errors map to
	// HTTP statuses in the Server: ErrSaturated → 503, errModelFault → 500,
	// context.DeadlineExceeded → 504, context.Canceled → 499.
	Predict(ctx context.Context, q plan.Query, root *plan.Node) (Prediction, error)
	// Explain renders a plan without running inference.
	Explain(root *plan.Node) Explanation
	// Workloads returns the trained workloads of the serving view (for a
	// pool: the routing replica's — all replicas hold identical inventories).
	Workloads() []*corepythia.Trained
	// Status reports the replica topology for /stats, /metrics, and
	// /v1/admin/replicas.
	Status() InfStatus
	// Swap is the zero-downtime model-swap hook: it loads a pythia.System
	// snapshot (see pythia.System.Save) into a standby generation, warms it
	// on recently served plans, and atomically swings the serving pointer.
	// Requests in flight during the swap complete on the generation they
	// loaded; the superseded generation holds no goroutines, so it is simply
	// collected once they finish.
	Swap(r io.Reader) error
}

// Prediction is the outcome of one routed inference.
type Prediction struct {
	// Workload is the matched trained workload ("" on fallback).
	Workload string
	// Pages is the predicted, buffer-bounded prefetch set.
	Pages []storage.PageID
	// Fallback reports that no workload matched (or the model path was
	// skipped) and the empty advisory answer was served.
	Fallback bool
	// Cached reports the answer came from the prediction cache with zero
	// inference.
	Cached bool
	// Degraded names why the model path was skipped (e.g. "breaker_open").
	Degraded string
	// Replica is the serving replica's index (-1 when the request never
	// routed, e.g. a pool-level fallback).
	Replica int
	// Generation is the model generation that answered; it increments on
	// every successful Swap.
	Generation uint64
}

// Explanation is the model-free plan rendering behind POST /v1/explain.
type Explanation struct {
	Plan   string
	Tokens []string
}

// explainPlan renders a plan exactly as the pre-pool server did.
func explainPlan(root *plan.Node) Explanation {
	return Explanation{
		Plan:   root.Display(),
		Tokens: serialize.Serialize(root, serialize.DefaultConfig()),
	}
}

// ErrSaturated reports that the routed replica's bounded work queue was full;
// the Server sheds the request with 503 + Retry-After.
var ErrSaturated = errors.New("serve: replica work queue is full")

// errModelFault is the injected transient model error (chaos drills); the
// Server answers 500 model_error, exactly like the pre-pool fault path.
var errModelFault = errors.New("serve: transient model error (injected)")

// errNoSnapshot reports a reload request with no snapshot path configured.
var errNoSnapshot = errors.New("serve: no snapshot path configured")

// InfStatus is the replica topology snapshot behind /v1/admin/replicas.
type InfStatus struct {
	// Generation is the current serving generation (1 at construction).
	Generation uint64 `json:"generation"`
	// Swaps counts completed model swaps.
	Swaps uint64 `json:"swaps"`
	// Replicas holds one row per serving replica.
	Replicas []ReplicaStatus `json:"replicas"`
}

// ReplicaStatus is one replica's row in InfStatus.
type ReplicaStatus struct {
	ID             int      `json:"id"`
	Generation     uint64   `json:"generation"`
	Served         uint64   `json:"served"`
	Shed           uint64   `json:"shed"`
	InFlight       int64    `json:"in_flight"`
	QueueDepth     int      `json:"queue_depth"`
	Breaker        string   `json:"breaker"`
	Health         string   `json:"health"`
	CacheEntries   int      `json:"cache_entries"`
	CacheCapacity  int      `json:"cache_capacity"`
	CacheHits      uint64   `json:"cache_hits"`
	CacheMisses    uint64   `json:"cache_misses"`
	CacheEvictions uint64   `json:"cache_evictions"`
	Workloads      []string `json:"workloads"`
	Params         int      `json:"params"`

	// QualityScored counts feedback reports scored against this replica's
	// predictions; Precision and Recall are micro-averaged over its sliding
	// feedback window (0 with no feedback — "no data" must not read as
	// perfect).
	QualityScored uint64  `json:"quality_scored"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	// Drift is the replica's drift-detector snapshot (state "ok" with zero
	// counters when the serving system carries no training baseline).
	Drift quality.DriftStats `json:"drift"`

	// BreakerValue is the breaker state as a gauge (closed=0, half_open=1,
	// open=2), for aggregation on /metrics; the name is in Breaker.
	BreakerValue int `json:"-"`
	// HealthValue is the health state as a gauge (healthy=0, degraded=1,
	// probation=2, quarantined=3); the name is in Health.
	HealthValue int `json:"-"`
}

// faultGate serializes draws on the shared chaos injector (fault.Injector is
// not synchronized and replicas fire it concurrently) and lets tests clear
// the injector on a live server.
type faultGate struct {
	mu  sync.Mutex
	inj *fault.Injector
}

func (g *faultGate) fire() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inj == nil {
		return false
	}
	return g.inj.Fire(fault.Serve, 0)
}

// fireModel draws the model-path fault decision for one replica: the shared
// Serve site plus the replica-targeted Replica site. Both streams always draw
// (no short-circuit), so enabling one site never shifts the other's
// deterministic sequence.
func (g *faultGate) fireModel(id int) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inj == nil {
		return false
	}
	s := g.inj.Fire(fault.Serve, 0)
	r := g.inj.FireReplica(id, 0)
	return s || r
}

// fireReplica draws only the replica-targeted site — the hook Pool.Swap uses
// to fail a chosen replica's standby build during a swap.
func (g *faultGate) fireReplica(id int) bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inj == nil {
		return false
	}
	return g.inj.FireReplica(id, 0)
}

func (g *faultGate) set(inj *fault.Injector) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.inj = inj
	g.mu.Unlock()
}

// warmSetSize bounds the recently-served plan set replayed through a standby
// generation before it starts taking traffic.
const warmSetSize = 8

// warmEntry is one recently served plan: the routing fingerprint plus enough
// of the request to re-run it through a fresh instance.
type warmEntry struct {
	fp   uint64
	q    plan.Query
	root *plan.Node
}

// warmer remembers the last warmSetSize distinct plans that reached the
// model tier. A model swap replays them through the standby generation so it
// comes up with hot prediction caches instead of serving its first requests
// cold. It outlives generations: the Single/Pool owns it, instances feed it.
type warmer struct {
	mu      sync.Mutex
	entries []warmEntry
	next    int
	seen    map[uint64]bool
}

func newWarmer() *warmer { return &warmer{seen: make(map[uint64]bool, warmSetSize)} }

// note records one served plan, ring-evicting the oldest past warmSetSize.
func (w *warmer) note(fp uint64, q plan.Query, root *plan.Node) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seen[fp] {
		return
	}
	if len(w.entries) < warmSetSize {
		w.entries = append(w.entries, warmEntry{fp: fp, q: q, root: root})
		w.seen[fp] = true
		return
	}
	delete(w.seen, w.entries[w.next].fp)
	w.entries[w.next] = warmEntry{fp: fp, q: q, root: root}
	w.seen[fp] = true
	w.next = (w.next + 1) % warmSetSize
}

// snapshot copies the current warm set.
func (w *warmer) snapshot() []warmEntry {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]warmEntry(nil), w.entries...)
}

// workloadNames lists a system's trained workload names for status rows.
func workloadNames(sys *corepythia.System) []string {
	var names []string
	for _, tw := range sys.Workloads() {
		names = append(names, tw.Name)
	}
	return names
}

// quantizeSystem flips every trained model in sys to int8 inference.
func quantizeSystem(sys *corepythia.System) {
	for _, tw := range sys.Workloads() {
		tw.Pred.Quantize()
	}
}
