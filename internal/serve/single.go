package serve

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
)

// Single is the one-replica Inferencer: the deployment shape the server had
// before the replica pool, now with the same zero-downtime Swap contract.
// The serving instance sits behind an atomic pointer; Swap builds a standby
// instance from a snapshot, warms it on recently served plans, and swings
// the pointer.
type Single struct {
	db      *catalog.Database
	metrics *Metrics
	opts    Options
	fgate   *faultGate
	warm    *warmer

	cur    atomic.Pointer[instance]
	swapMu sync.Mutex // serializes Swap; Predict never takes it
	swaps  atomic.Uint64
}

// NewSingle builds a single-instance Inferencer over a trained system.
// Options are normalized here; most callers want New, which picks Single or
// Pool from Options.Replicas and wraps it in the HTTP server.
func NewSingle(db *catalog.Database, sys *corepythia.System, metrics *Metrics, opts Options) (*Single, error) {
	norm, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	return newSingle(db, sys, metrics, &faultGate{inj: norm.Fault}, norm), nil
}

// newSingle is the internal constructor: opts are already normalized and the
// fault gate is shared with the owning Server.
func newSingle(db *catalog.Database, sys *corepythia.System, metrics *Metrics, fgate *faultGate, opts Options) *Single {
	if opts.Quantize {
		quantizeSystem(sys)
	}
	s := &Single{db: db, metrics: metrics, opts: opts, fgate: fgate, warm: newWarmer()}
	s.cur.Store(newInstance(0, 1, sys, metrics, fgate, s.warm, opts))
	return s
}

// Predict answers one query on the current instance.
func (s *Single) Predict(ctx context.Context, q plan.Query, root *plan.Node) (Prediction, error) {
	return s.cur.Load().predict(ctx, q, root, false)
}

// Explain renders a plan without inference.
func (s *Single) Explain(root *plan.Node) Explanation { return explainPlan(root) }

// Workloads returns the current instance's trained workloads.
func (s *Single) Workloads() []*corepythia.Trained { return s.cur.Load().sys.Workloads() }

// Status reports the single replica's topology row.
func (s *Single) Status() InfStatus {
	ins := s.cur.Load()
	return InfStatus{
		Generation: ins.gen,
		Swaps:      s.swaps.Load(),
		Replicas:   []ReplicaStatus{ins.status()},
	}
}

// Swap loads a pythia.System snapshot (pythia.System.Save) into a standby
// instance, warms its caches on recently served plans, and atomically makes
// it the serving instance. In-flight requests finish on the instance that
// admitted them; no request ever sees a half-loaded model.
func (s *Single) Swap(r io.Reader) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.cur.Load()
	sys, err := corepythia.LoadSystem(s.db, old.sys.Config(), r)
	if err != nil {
		return err
	}
	if len(sys.Workloads()) == 0 {
		return errors.New("serve: snapshot contains no trained workloads")
	}
	if s.opts.Quantize {
		quantizeSystem(sys)
	}
	next := newInstance(0, old.gen+1, sys, s.metrics, s.fgate, s.warm, s.opts)
	warmThrough(s.warm.snapshot(), s.opts.RequestTimeout, func(uint64) *instance { return next })
	s.cur.Store(next)
	s.swaps.Add(1)
	return nil
}

// BaselineID reports the serving system's drift-baseline identity (nil when
// untrained or the snapshot predates baselines).
func (s *Single) BaselineID() *corepythia.BaselineID { return s.cur.Load().sys.BaselineID() }
