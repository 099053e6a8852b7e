package serve

// The replica pool is the serving tier's scale-out layer. One trained
// pythia.System is snapshotted (pythia.System.Save) and decoded into N
// independent clones, each wrapped in an instance with its own prediction
// cache, circuit breaker, and bounded work queue. A request is matched once
// on the routing replica, fingerprinted by its encoded plan (the same key the
// prediction cache uses), and routed through a consistent-hash ring to the
// replica that owns that fingerprint.
//
// Why route by plan hash instead of round-robin: templated workloads
// collapse to few distinct plans, so replica-affine routing means each
// distinct plan's cached prediction lives on exactly one replica — the
// pool's aggregate cache holds N shards of the hot set, not N copies of it —
// and a cache miss for a given plan always recomputes on the replica that
// will field that plan's future hits. Model weights are cloned per replica,
// so forward passes on different replicas never serialize on a shared
// model's mutex; that is where the aggregate throughput multiple comes from.
//
// A model swap builds a complete standby generation (N fresh clones from the
// new snapshot), warms it on recently served plans, and swings one atomic
// pointer. Requests in flight keep the generation pointer they loaded, so
// every request runs against exactly one coherent generation — there is no
// torn state to observe. A superseded generation owns no goroutines, so it
// needs no teardown: it is collected once its last request finishes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// generation is one immutable serving configuration: N instances and the
// ring that routes over them. Predict loads it once and uses only it, so a
// concurrent Swap can never hand a request instances from two generations.
type generation struct {
	id        uint64
	instances []*instance
	ring      *hashRing
}

// Pool is the N-replica Inferencer behind the serving tier.
type Pool struct {
	db      *catalog.Database
	metrics *Metrics
	opts    Options
	fgate   *faultGate
	warm    *warmer

	cur    atomic.Pointer[generation]
	swapMu sync.Mutex // serializes Swap; Predict never takes it
	swaps  atomic.Uint64

	// hist observes end-to-end pool predict latencies when hedging is armed;
	// its p95 (floored by Options.HedgeAfter) is the hedge trigger delay.
	hist *obs.Histogram
}

// NewPool builds a pool of opts.Replicas independent replicas over a trained
// system. The system is snapshotted once and decoded opts.Replicas-1 times
// (replica 0 serves the original), so construction cost scales with model
// size, not training time. Options are normalized here; most callers want
// New, which picks Single or Pool from Options.Replicas.
func NewPool(db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) (*Pool, error) {
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	return newPool(db, sys, metrics, &faultGate{inj: norm.Fault}, norm)
}

// newPool is the internal constructor: opts are already normalized and the
// fault gate is shared with the owning Server.
func newPool(db *catalog.Database, sys *corepythia.System, metrics *Metrics, fgate *faultGate, opts Options) (*Pool, error) {
	p := &Pool{db: db, metrics: metrics, opts: opts, fgate: fgate, warm: newWarmer(), hist: obs.NewHistogram(nil)}
	// Snapshot before quantizing: clones decode float32 weights and quantize
	// themselves, rather than round-tripping an already-quantized model.
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		return nil, fmt.Errorf("serve: snapshotting system for replication: %w", err)
	}
	if opts.Quantize {
		quantizeSystem(sys)
	}
	instances := make([]*instance, opts.Replicas)
	instances[0] = newInstance(0, 1, sys, metrics, fgate, p.warm, opts)
	for i := 1; i < opts.Replicas; i++ {
		clone, err := corepythia.LoadSystem(db, sys.Config(), bytes.NewReader(snap.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("serve: cloning replica %d: %w", i, err)
		}
		if opts.Quantize {
			quantizeSystem(clone)
		}
		instances[i] = newInstance(i, 1, clone, metrics, fgate, p.warm, opts)
	}
	p.cur.Store(&generation{id: 1, instances: instances, ring: newRing(opts.Replicas)})
	return p, nil
}

// failoverable reports whether a replica error is one routing may move past:
// saturation and injected model faults are properties of the replica, so a
// ring successor can still answer. Context errors are properties of the
// request (the budget is spent either way) and propagate unchanged.
func failoverable(err error) bool {
	return errors.Is(err, ErrSaturated) || errors.Is(err, errModelFault)
}

// maxFailoverCand bounds the stack-allocated candidate arrays in Predict;
// MaxFailovers past it would heap-allocate, which Normalize's default (2)
// never does.
const maxFailoverCand = 8

// Predict matches the query once on the routing replica, routes its plan
// fingerprint through the ring, and answers on the owning replica — or, when
// the owner is quarantined, saturated, or faulting, fails over to up to
// Options.MaxFailovers ring successors (each hop recorded as a failover).
// The routed replica resolves its own (independent) Trained handle quietly,
// so one request records exactly one workload-matching event.
//
// Quarantined replicas are skipped, except that a quarantined owner whose
// probe backoff has elapsed is admitted one probe request; if the probe
// fails, the request still fails over, so probing costs the client nothing.
// When every candidate is quarantined with no probe due, the request answers
// the degraded fallback rather than an error — prefetching is advisory, so
// degraded beats unavailable.
func (p *Pool) Predict(ctx context.Context, q plan.Query, root *plan.Node) (Prediction, error) {
	gen := p.cur.Load()
	router := gen.instances[0]
	tw := router.sys.Match(q)
	if tw == nil {
		return Prediction{Fallback: true, Replica: -1, Generation: gen.id}, nil
	}
	fp := fingerprint(tw.Name, tw.Pred.EncodePlan(root))
	if p.opts.HedgeAfter > 0 {
		start := time.Now()
		defer func() { p.hist.Observe(time.Since(start)) }()
	}
	var obuf [maxFailoverCand]int
	order := gen.ring.lookupN(fp, obuf[:0], p.opts.MaxFailovers+1)

	// Admission pass: a candidate takes traffic while it is serving, and a
	// quarantined candidate whose backoff has elapsed is admitted one probe.
	// pos remembers each live candidate's position in ring order, so hops
	// over skipped (quarantined) candidates are counted as failovers only
	// when a later candidate actually serves.
	var lbuf [maxFailoverCand]*instance
	var pbuf [maxFailoverCand]int
	live, pos := lbuf[:0], pbuf[:0]
	for i, idx := range order {
		ins := gen.instances[idx]
		if ins.serving() || ins.health.allowProbe() {
			live = append(live, ins)
			pos = append(pos, i)
		}
	}
	if len(live) == 0 {
		return Prediction{Fallback: true, Degraded: "no_healthy_replica", Replica: -1, Generation: gen.id}, nil
	}
	if p.opts.HedgeAfter > 0 && len(live) > 1 {
		p.noteFailovers(pos[0])
		return p.predictHedged(ctx, live[0], live[1], q, root)
	}
	var pred Prediction
	var err error
	prev := 0
	for j, ins := range live {
		// pos[j]-prev counts every candidate moved past to reach this one:
		// quarantined skips plus the previous live candidate's failed attempt.
		p.noteFailovers(pos[j] - prev)
		prev = pos[j]
		pred, err = ins.predict(ctx, q, root, true)
		if err == nil || !failoverable(err) {
			return pred, err
		}
	}
	return pred, err
}

// noteFailovers records n failover hops on the metrics surface.
func (p *Pool) noteFailovers(n int) {
	if n <= 0 {
		return
	}
	p.metrics.failovers.Add(uint64(n))
	if rec := p.metrics.Events(); rec != nil {
		for i := 0; i < n; i++ {
			rec.Record(obs.Event{Kind: obs.ReplicaFailover, Query: obs.NoQuery})
		}
	}
}

// hedgeDelay is the quantile-derived hedge trigger: the pool's observed p95
// predict latency, floored by Options.HedgeAfter so a cold histogram (or an
// all-cache-hit workload reporting microsecond p95s) does not hedge on noise.
func (p *Pool) hedgeDelay() time.Duration {
	if d := p.hist.Quantile(0.95); d > p.opts.HedgeAfter {
		return d
	}
	return p.opts.HedgeAfter
}

// predictHedged races the primary attempt against a delayed second attempt
// on the ring successor: whichever answers first wins and the loser's
// context is canceled (a canceled attempt records nothing against its
// replica's breaker or health). The hedge also launches immediately if the
// primary fails a failoverable way before the delay elapses — the sequential
// failover path wearing the hedging machinery.
func (p *Pool) predictHedged(ctx context.Context, primary, successor *instance, q plan.Query, root *plan.Node) (Prediction, error) {
	type outcome struct {
		pred Prediction
		err  error
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	pch := make(chan outcome, 1)
	hch := make(chan outcome, 1)
	go func() {
		pr, err := primary.predict(pctx, q, root, true)
		pch <- outcome{pr, err}
	}()

	var primaryRes *outcome
	timer := time.NewTimer(p.hedgeDelay())
	defer timer.Stop()
	select {
	case o := <-pch:
		if o.err == nil || !failoverable(o.err) {
			return o.pred, o.err
		}
		primaryRes = &o // primary already failed: hedge immediately
	case <-timer.C:
		p.metrics.hedges.Add(1)
	case <-ctx.Done():
		return Prediction{Replica: -1}, ctx.Err()
	}

	go func() {
		pr, err := successor.predict(hctx, q, root, true)
		hch <- outcome{pr, err}
	}()
	var hedgeRes *outcome
	for {
		select {
		case o := <-pch:
			if o.err == nil || !failoverable(o.err) {
				hcancel()
				return o.pred, o.err
			}
			primaryRes = &o
			if hedgeRes != nil {
				return o.pred, o.err // both failed: report the primary's error
			}
		case o := <-hch:
			if o.err == nil || !failoverable(o.err) {
				pcancel()
				if primaryRes != nil {
					// The successor rescued a failed primary: that is a
					// failover, not a hedge win.
					p.noteFailovers(1)
				} else {
					p.metrics.hedgeWins.Add(1)
				}
				return o.pred, o.err
			}
			hedgeRes = &o
			if primaryRes != nil {
				return primaryRes.pred, primaryRes.err
			}
		case <-ctx.Done():
			return Prediction{Replica: -1}, ctx.Err()
		}
	}
}

// Explain renders a plan without inference.
func (p *Pool) Explain(root *plan.Node) Explanation { return explainPlan(root) }

// Workloads returns the routing replica's trained workloads (every replica
// holds an identical inventory).
func (p *Pool) Workloads() []*corepythia.Trained {
	return p.cur.Load().instances[0].sys.Workloads()
}

// Status reports the pool topology: one row per replica of the current
// generation.
func (p *Pool) Status() InfStatus {
	gen := p.cur.Load()
	st := InfStatus{Generation: gen.id, Swaps: p.swaps.Load()}
	for _, ins := range gen.instances {
		st.Replicas = append(st.Replicas, ins.status())
	}
	return st
}

// BaselineID reports the serving generation's drift-baseline identity (every
// replica decodes the same snapshot, so the routing replica's answers for
// all).
func (p *Pool) BaselineID() *corepythia.BaselineID {
	return p.cur.Load().instances[0].sys.BaselineID()
}

// Swap loads a snapshot into a complete standby generation (one fresh clone
// per replica), warms it on recently served plans, and atomically makes it
// the serving generation. Requests in flight complete on the generation that
// admitted them; a request observes exactly one generation end to end, never
// a mix.
//
// The swap is transactional: if any replica fails to build its standby —
// a corrupt, truncated or oversized snapshot (pythia.ErrSnapshotCorrupt), a
// version mismatch, or an injected replica build fault — the partial standby
// is dropped and the old generation keeps serving, untouched. The serving
// pointer only ever swings to a complete generation.
func (p *Pool) Swap(r io.Reader) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	data, err := corepythia.ReadSnapshot(r)
	if err != nil {
		return fmt.Errorf("serve: reading snapshot: %w", err)
	}
	old := p.cur.Load()
	cfg := old.instances[0].sys.Config()
	genID := old.id + 1
	// An error return drops the partial standby; the old generation was never
	// touched, so it keeps serving as if the swap had not been attempted.
	instances := make([]*instance, len(old.instances))
	for i := range instances {
		if p.fgate.fireReplica(i) {
			return fmt.Errorf("serve: building standby replica %d: %w", i, errModelFault)
		}
		sys, err := corepythia.LoadSystem(p.db, cfg, bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("serve: loading snapshot into replica %d: %w", i, err)
		}
		if i == 0 && len(sys.Workloads()) == 0 {
			return errors.New("serve: snapshot contains no trained workloads")
		}
		if p.opts.Quantize {
			quantizeSystem(sys)
		}
		instances[i] = newInstance(i, genID, sys, p.metrics, p.fgate, p.warm, p.opts)
	}
	next := &generation{id: genID, instances: instances, ring: old.ring}
	warmThrough(p.warm.snapshot(), p.opts.RequestTimeout, func(fp uint64) *instance {
		return next.instances[next.ring.lookup(fp)]
	})
	p.cur.Store(next)
	p.swaps.Add(1)
	return nil
}
