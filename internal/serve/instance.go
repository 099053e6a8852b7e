package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/storage"
)

// qualityWindowSize is each replica's sliding feedback-score window: fresh
// enough to reflect the current mix, deep enough that windowed precision is
// not one noisy query.
const qualityWindowSize = 512

// serveDriftEvalEvery slows the drift detector's evaluation cadence on the
// serve tier relative to the replay default. A sustained load run evaluates
// thousands of times where a replay evaluates a handful, so the detector's
// per-evaluation false-positive probability gets multiplied by a factor the
// replay tier never sees; a longer cadence both shrinks that factor and
// quadruples the decayed live sample each PSI reading is computed from.
const serveDriftEvalEvery = 64

// instance is one serving replica: an independent trained system with its
// own prediction cache, circuit breaker, and bounded work queue. Replicas
// share nothing but the metrics hub, the fault gate, and the warm set — each
// holds its own model weights (clones decoded from one snapshot), so
// inference on different replicas runs truly in parallel instead of
// serializing on one model's mutex.
type instance struct {
	id   int
	gen  uint64
	sys  *corepythia.System
	opts Options

	metrics *Metrics
	fgate   *faultGate
	warm    *warmer

	// cache is the per-replica prediction cache: consistent-hash routing
	// sends a plan fingerprint to the same replica every time, so each
	// replica's cache holds a disjoint hot set instead of N copies of the
	// same entries. Nil when disabled.
	cache   *predCache
	breaker *breaker

	// health is the replica's self-healing state machine (see health.go):
	// the pool consults it when routing, so a quarantined replica's shard
	// fails over to ring successors until probes re-admit it.
	health *health

	// queue bounds concurrently admitted requests on this replica (nil =
	// unbounded). Routing is by plan hash, not load, so a replica stuck on a
	// slow inference sheds its own overflow instead of queueing unboundedly
	// while its siblings idle.
	queue chan struct{}

	// qmu serializes the replica's quality state: the sliding window of
	// feedback scores and the drift monitor (Monitor is not synchronized by
	// design — its other owner, the replay scorer, is single-threaded). qmon
	// is nil when the replica's system carries no training baseline (untrained
	// server, or a snapshot predating baselines) — drift detection off.
	qmu  sync.Mutex
	qwin *quality.Window
	qmon *quality.Monitor

	inflight atomic.Int64
	served   atomic.Uint64
	shed     atomic.Uint64
}

func newInstance(id int, gen uint64, sys *corepythia.System, metrics *Metrics, fgate *faultGate, warm *warmer, opts Options) *instance {
	ins := &instance{
		id: id, gen: gen, sys: sys, opts: opts,
		metrics: metrics, fgate: fgate, warm: warm,
		breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, metrics.Events()),
		health:  newHealth(opts.QuarantineThreshold, opts.QuarantineBackoff, opts.QuarantineProbes, metrics.Events()),
		qwin:    quality.NewWindow(qualityWindowSize),
		qmon:    quality.NewMonitor(sys.Baseline(), quality.Options{EvalEvery: serveDriftEvalEvery}),
	}
	if opts.CacheEntries > 0 {
		ins.cache = newPredCache(opts.CacheEntries, metrics.Events())
	}
	if opts.QueueDepth > 0 {
		ins.queue = make(chan struct{}, opts.QueueDepth)
	}
	return ins
}

// predict runs the full model path for one planned query. routed reports the
// caller already matched the query once on its routing view (the pool's
// router); the replica then resolves its own Trained handle quietly with
// Lookup so one request never records two matching events.
//
// Stage order: bounded-queue admission → workload matching → prediction
// cache → circuit breaker → fault injection → inference → cache fill.
func (ins *instance) predict(ctx context.Context, q plan.Query, root *plan.Node, routed bool) (Prediction, error) {
	p := Prediction{Replica: ins.id, Generation: ins.gen}
	if ins.queue != nil {
		select {
		case ins.queue <- struct{}{}:
			defer func() { <-ins.queue }()
		default:
			// An admission shed counts as a health failure: a replica that
			// cannot accept its shard's traffic is unhealthy from the
			// router's point of view, whatever the cause.
			ins.shed.Add(1)
			ins.health.failure()
			return p, ErrSaturated
		}
	}
	ins.inflight.Add(1)
	defer ins.inflight.Add(-1)
	defer ins.served.Add(1)

	// Every admitted request feeds the drift monitor — matched or fallback:
	// a flood of unmatched plans is exactly the shift drift detection exists
	// to catch.
	ins.observeDrift(root)

	var tw *corepythia.Trained
	if routed {
		tw = ins.sys.Lookup(q)
	} else {
		tw = ins.sys.Match(q)
	}

	// Stage 1: prediction cache. Checked before the breaker and fault hooks —
	// a hit performs zero inference and cannot fail, so cached plans keep
	// answering even while the model path is degraded.
	var fp uint64
	cacheable := tw != nil && ins.cache != nil
	if cacheable {
		fp = fingerprint(tw.Name, tw.Pred.EncodePlan(root))
		ins.warm.note(fp, q, root)
		if pages, hit := ins.cache.get(fp); hit {
			// Cache hits count as health successes: a replica answering its
			// shard from cache is serving, and counting them keeps a probe
			// that happens to hit the cache from wedging quarantine.
			ins.metrics.markCache(true)
			ins.health.success()
			p.Workload = tw.Name
			p.Cached = true
			p.Pages = pages
			return p, nil
		}
		ins.metrics.markCache(false)
	}

	if tw != nil && !ins.breaker.allow() {
		// Breaker open: answer from the fallback path without touching the
		// model. The client still gets a well-formed (empty) prediction —
		// prefetching is advisory, so degraded beats unavailable.
		p.Degraded = "breaker_open"
		tw = nil
	}
	if tw == nil {
		p.Fallback = true
		return p, nil
	}
	if ins.fgate.fireModel(ins.id) {
		ins.breaker.failure()
		ins.health.failure()
		return p, errModelFault
	}
	p.Workload = tw.Name
	pages, err := ins.infer(ctx, tw, root)
	if err != nil {
		return p, err
	}
	if cacheable {
		// Only successful inferences populate the cache; faulted or
		// timed-out requests never do, so the cache cannot serve poison.
		ins.cache.put(fp, pages)
	}
	p.Pages = pages
	return p, nil
}

// infer runs the miss (inference) path: the single-plan inference starts at
// once on its own goroutine, so a disconnected client (or an expired budget)
// aborts the wait, not the work. Context errors come back verbatim for the
// Server to map to 504/499.
func (ins *instance) infer(ctx context.Context, tw *corepythia.Trained, root *plan.Node) ([]storage.PageID, error) {
	done := make(chan []storage.PageID, 1)
	//pythia:goleak-ok one-shot inference; done is buffered so the sender exits even when the select below took the ctx branch
	go func() { done <- tw.Pred.PredictParallel(root) }()
	select {
	case pages := <-done:
		ins.breaker.success()
		ins.health.success()
		if rec := ins.metrics.Events(); rec != nil {
			rec.Record(obs.Event{Kind: obs.InferenceRun})
		}
		return ins.sys.LimitPrefetch(pages), nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// A deadline miss is a model-path failure; a canceled request
			// (client gone, or a hedge loser) says nothing about the replica
			// and records neither way.
			ins.metrics.timeouts.Add(1)
			ins.breaker.failure()
			ins.health.failure()
		}
		return nil, ctx.Err()
	}
}

// observeDrift folds one planned query into the replica's live distribution
// profile and surfaces any drift-state transition as obs events and span
// marks. One mutex acquisition when armed; a nil-check when not.
func (ins *instance) observeDrift(root *plan.Node) {
	if ins.qmon == nil {
		return
	}
	ins.qmu.Lock()
	tr := ins.qmon.Observe(corepythia.DriftTokens(root))
	ins.qmu.Unlock()
	if !tr.Changed {
		return
	}
	if rec := ins.metrics.Events(); rec != nil {
		rec.Record(obs.Event{Kind: quality.DriftEventKind(tr.To), Query: obs.NoQuery})
	}
	ins.metrics.markDrift(quality.DriftMarkKind(tr.To))
}

// feedback folds one scored prediction into the replica's quality window
// (called by the server when /v1/feedback resolves to this replica).
func (ins *instance) feedback(sc quality.Score) {
	ins.qmu.Lock()
	ins.qwin.Add(sc)
	ins.qmu.Unlock()
}

// status reports this replica's row for InfStatus.
func (ins *instance) status() ReplicaStatus {
	st := ReplicaStatus{
		ID:           ins.id,
		Generation:   ins.gen,
		Served:       ins.served.Load(),
		Shed:         ins.shed.Load(),
		InFlight:     ins.inflight.Load(),
		QueueDepth:   cap(ins.queue),
		Breaker:      ins.breaker.State(),
		BreakerValue: ins.breaker.stateValue(),
		Health:       ins.health.State(),
		HealthValue:  ins.health.stateValue(),
		Workloads:    workloadNames(ins.sys),
	}
	for _, tw := range ins.sys.Workloads() {
		st.Params += tw.Pred.ParamCount()
	}
	if ins.cache != nil {
		st.CacheEntries = ins.cache.len()
		st.CacheCapacity = ins.cache.capacity()
		st.CacheHits = ins.cache.hits.Load()
		st.CacheMisses = ins.cache.misses.Load()
		st.CacheEvictions = ins.cache.evictions.Load()
	}
	ins.qmu.Lock()
	st.QualityScored = ins.qwin.Seen()
	st.Precision = ins.qwin.Precision()
	st.Recall = ins.qwin.Recall()
	st.Drift = ins.qmon.Stats()
	ins.qmu.Unlock()
	return st
}

// serving reports whether the pool should route normal traffic here: the
// replica is not quarantined and its breaker is not open inside an
// unelapsed cooldown (a cooldown-elapsed open breaker still takes traffic —
// the trial request is what lets it half-open).
func (ins *instance) serving() bool {
	return ins.health.serving() && !ins.breaker.blocked()
}

// warmThrough replays the warm set through freshly built instances: pick
// maps each recorded fingerprint to its new replica (identity for a single
// instance, the hash ring for a pool) and each entry runs one quiet routed
// prediction there, populating the new generation's caches before it takes
// traffic. Failures are ignored — warming is best-effort by design.
func warmThrough(entries []warmEntry, timeout time.Duration, pick func(fp uint64) *instance) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	for _, e := range entries {
		ins := pick(e.fp)
		if ins == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		if _, err := ins.predict(ctx, e.q, e.root, true); err != nil {
			// Best-effort: a faulted or slow warm-up prediction just means a
			// cold first request for that plan.
			_ = err
		}
		cancel()
	}
}
