package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// fixtureSeed fixes the database, the training set and the held-out
// evaluation set. They are the benchmark's fixture, like a dataset shipped
// with a benchmark suite: a model trained on a few dozen queries, and its
// simulated speedup over a hundred held-out ones, vary from one draw to
// the next by more than any bound the benchmark could hold. With them
// fixed, every run is judged against the same model and the paper's
// metrics repeat exactly from run to run. The run's --seed draws what the
// program is asked at run time: the request stream, the hot corpus, and
// the order replay rounds run in.
const fixtureSeed = 7

// fixtureSpec sizes the database and the training set of a workload.
type fixtureSpec struct {
	template string
	sf       int // DSB scale factor
	train    int // training instances
	eval     int // held-out instances the paper's metrics are computed over
	epochs   int
	// setups is how many times a timed run repeats its whole set-up; the
	// reported setup_s is their median.
	setups int
}

// fixture is a trained system over a generated database.
type fixture struct {
	gen   *dsb.Generator
	sys   *corepythia.System
	tw    *corepythia.Trained
	eval  []*workload.Instance // the held-out evaluation set
	shape model.Config         // the trained models' shapes
}

// buildFixture generates the database and trains the workload's model,
// recording one span per layer call under parent.
func buildFixture(fs fixtureSpec, tr *tracer, parent int) (*fixture, error) {
	s := tr.begin("dsb.generate", parent, 0)
	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: fs.sf, Seed: fixtureSeed})
	tr.end(s, 1)
	s = tr.begin("workload.build", parent, 0)
	train := gen.Workload(fs.template, fs.train, fixtureSeed+1)
	eval := gen.Workload(fs.template, fs.eval, fixtureSeed+2)
	tr.end(s, 1)

	cfg := corepythia.DefaultConfig()
	shape := model.DefaultConfig()
	shape.Epochs = fs.epochs
	cfg.Predictor.Model = shape
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, fmt.Errorf("system config: %w", err)
	}
	sys := corepythia.New(gen.DB(), cfg)
	s = tr.begin("pythia.train", parent, 0)
	tw := sys.Train(fs.template, train.Instances)
	tr.end(s, 1)
	return &fixture{gen: gen, sys: sys, tw: tw, eval: eval.Instances, shape: shape}, nil
}

// planBody decodes and plans a request body exactly as the server does.
func (fx *fixture) planBody(body []byte) (plan.Query, *plan.Node, error) {
	qs, err := spec.Decode(bytes.NewReader(body))
	if err != nil {
		return plan.Query{}, nil, err
	}
	q, err := qs.ToQuery()
	if err != nil {
		return plan.Query{}, nil, err
	}
	root, err := plan.NewPlanner(fx.gen.DB()).Plan(q)
	return q, root, err
}

// oracle computes the answer the server must give for a request body
// directly from the trained model: the buffer-limited prefetch set of
// Predictor.Predict on the decoded spec's plan (nil for a query no trained
// workload matches, which the server answers as a fallback).
func (fx *fixture) oracle(body []byte) ([]pageJSON, error) {
	q, root, err := fx.planBody(body)
	if err != nil {
		return nil, err
	}
	tw := fx.sys.Lookup(q)
	if tw == nil {
		return nil, nil
	}
	return fx.pagesJSON(fx.sys.LimitPrefetch(tw.Pred.Predict(root))), nil
}

// encodeQuery renders a query as the QuerySpec body /v1/predict takes.
func encodeQuery(q plan.Query) ([]byte, error) {
	var buf bytes.Buffer
	if err := spec.FromQuery(q).Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding query spec: %w", err)
	}
	return buf.Bytes(), nil
}

// pageJSON is one page as the serve API spells it.
type pageJSON struct {
	Object string `json:"object"`
	Page   uint32 `json:"page"`
}

func (fx *fixture) pagesJSON(pages []storage.PageID) []pageJSON {
	reg := fx.gen.DB().Registry
	out := make([]pageJSON, len(pages))
	for i, p := range pages {
		name := fmt.Sprint(p.Object)
		if obj := reg.Lookup(p.Object); obj != nil {
			name = obj.Name
		}
		out[i] = pageJSON{Object: name, Page: uint32(p.Page)}
	}
	return out
}

func (fx *fixture) pageIDs(pages []pageJSON) ([]storage.PageID, error) {
	reg := fx.gen.DB().Registry
	out := make([]storage.PageID, len(pages))
	for i, p := range pages {
		obj := reg.LookupName(p.Object)
		if obj == nil {
			return nil, fmt.Errorf("answer names unknown object %q", p.Object)
		}
		out[i] = storage.PageID{Object: obj.ID, Page: storage.PageNum(p.Page)}
	}
	return out, nil
}

// repeatSetup runs build n times and returns the last result with the
// median build time in seconds. Each earlier result is released with
// discard, outside the timed interval, before the next build starts.
func repeatSetup[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var cur T
	times := make([]float64, 0, n)
	for i := 0; i < max(n, 1); i++ {
		if i > 0 {
			discard(cur)
		}
		start := time.Now()
		next, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		cur = next
	}
	return cur, median(times), nil
}

// runtimeSample reads the counters the runtime metrics are deltas of.
type runtimeSample struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, gcCPU: cpuSeconds(s[0]), totalCPU: cpuSeconds(s[1])}
}

func cpuSeconds(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// setRuntime records the allocation and GC metrics of a measured phase
// that served ops operations.
func setRuntime(o *outcome, before, after runtimeSample, ops int64) {
	o.set("runtime.allocs_per_request", ratio(float64(after.mallocs-before.mallocs), float64(ops)), "")
	o.set("runtime.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "")
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// splitmix64 is a stateless mixer: the stream's choice at a position is a
// pure function of (seed, position), whichever client takes it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
