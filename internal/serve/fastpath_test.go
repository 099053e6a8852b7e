package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/predictor"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/workload"
)

// fastServer builds a server sharing the fixture's trained system but with
// its own metrics and cache, so fast-path tests see clean counters.
func fastServer(t *testing.T, opts Options) (*Server, *workload.Workload) {
	t.Helper()
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), opts)
	t.Cleanup(srv.Close)
	return srv, w
}

// predictOK posts one instance query and decodes the 200 response.
func predictOK(t *testing.T, srv *Server, w *workload.Workload, inst int) predictResponse {
	t.Helper()
	body := specBody(t, spec.FromQuery(w.Instances[inst].Query))
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("instance %d: status %d: %s", inst, rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// distinctInstances returns indices of n workload instances whose plans have
// pairwise distinct cache fingerprints (generated parameters can repeat, so
// instance index alone does not guarantee distinct plans).
func distinctInstances(t testing.TB, srv *Server, w *workload.Workload, n int) []int {
	t.Helper()
	pl := plan.NewPlanner(srv.db)
	seen := map[uint64]bool{}
	var idx []int
	for i := range w.Instances {
		tw := srv.inst().sys.Lookup(w.Instances[i].Query)
		if tw == nil {
			continue
		}
		root, err := pl.Plan(w.Instances[i].Query)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(tw.Name, tw.Pred.EncodePlan(root))
		if seen[fp] {
			continue
		}
		seen[fp] = true
		idx = append(idx, i)
		if len(idx) == n {
			return idx
		}
	}
	t.Fatalf("workload has only %d distinct plans, need %d", len(idx), n)
	return nil
}

// TestCacheHitSkipsInference: the second request for an identical plan must
// answer from the cache with zero inference — asserted through the obs
// counters, not timing.
func TestCacheHitSkipsInference(t *testing.T) {
	srv, w := fastServer(t, Options{})
	first := predictOK(t, srv, w, 0)
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	snap := srv.metrics.Events().Snapshot()
	if snap.Get(obs.InferenceRun) != 1 || snap.Get(obs.PredCacheMiss) != 1 {
		t.Fatalf("after miss: inference_run=%d predcache_miss=%d, want 1/1",
			snap.Get(obs.InferenceRun), snap.Get(obs.PredCacheMiss))
	}

	second := predictOK(t, srv, w, 0)
	if !second.Cached || second.Workload != first.Workload {
		t.Fatalf("second request not served from cache: %+v", second)
	}
	if !reflect.DeepEqual(second.Pages, first.Pages) {
		t.Fatalf("cached pages diverge: %v vs %v", second.Pages, first.Pages)
	}
	snap = srv.metrics.Events().Snapshot()
	if snap.Get(obs.InferenceRun) != 1 {
		t.Fatalf("cache hit ran inference: inference_run=%d", snap.Get(obs.InferenceRun))
	}
	if snap.Get(obs.PredCacheHit) != 1 {
		t.Fatalf("predcache_hit=%d, want 1", snap.Get(obs.PredCacheHit))
	}
	if h := srv.inst().cache.hits.Load(); h != 1 {
		t.Fatalf("cache hits=%d, want 1", h)
	}
}

// TestCacheConcurrentIdentity: many goroutines hammering a mix of plans must
// each get exactly the single-threaded answer, hit or miss. Run under -race
// this also exercises the sharded-LRU locking.
func TestCacheConcurrentIdentity(t *testing.T) {
	srv, w := fastServer(t, Options{})
	insts := distinctInstances(t, srv, w, 4)
	// Single-threaded reference answers.
	want := map[int][]pageJSON{}
	for _, i := range insts {
		want[i] = predictOK(t, srv, w, i).Pages
	}
	const workers, iters = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := insts[(g+it)%len(insts)]
				resp := predictOK(t, srv, w, i)
				if !reflect.DeepEqual(resp.Pages, want[i]) {
					t.Errorf("instance %d: concurrent answer %v, want %v", i, resp.Pages, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := srv.metrics.Events().Snapshot()
	if snap.Get(obs.PredCacheHit) == 0 {
		t.Fatal("concurrent run recorded no cache hits")
	}
}

// TestCacheEvictionAtCapacity: a cache bounded below the distinct-plan count
// must evict (counted on obs and /metrics) and never exceed its capacity.
func TestCacheEvictionAtCapacity(t *testing.T) {
	srv, w := fastServer(t, Options{CacheEntries: 4})
	if got := srv.inst().cache.capacity(); got != 4 {
		t.Fatalf("capacity %d, want 4", got)
	}
	insts := distinctInstances(t, srv, w, 6)
	for _, i := range insts {
		predictOK(t, srv, w, i)
	}
	if n := srv.inst().cache.len(); n > 4 {
		t.Fatalf("cache holds %d entries past capacity 4", n)
	}
	if ev := srv.inst().cache.evictions.Load(); ev != 2 {
		t.Fatalf("evictions=%d, want 2 (6 distinct plans into 4 slots)", ev)
	}
	if snap := srv.metrics.Events().Snapshot(); snap.Get(obs.PredCacheEvict) != 2 {
		t.Fatalf("predcache_evict event=%d, want 2", snap.Get(obs.PredCacheEvict))
	}
	// LRU order: the oldest plan was evicted, so repeating it misses again.
	before := srv.inst().cache.misses.Load()
	predictOK(t, srv, w, insts[0])
	if srv.inst().cache.misses.Load() != before+1 {
		t.Fatal("evicted plan did not miss on re-request")
	}
}

// TestShedDoesNotPoisonCache: a shed request must be refused before it
// reaches the miss path — nothing stored in the cache, no inference run —
// and the next admitted request must answer normally.
func TestShedDoesNotPoisonCache(t *testing.T) {
	srv, w := fastServer(t, Options{MaxInFlight: 1})
	srv.inflight.Add(1) // saturate the only slot
	body := specBody(t, spec.FromQuery(w.Instances[0].Query))
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", body)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rr.Code)
	}
	if n := srv.inst().cache.len(); n != 0 {
		t.Fatalf("shed request left %d cache entries", n)
	}
	if snap := srv.metrics.Events().Snapshot(); snap.Get(obs.InferenceRun) != 0 {
		t.Fatalf("shed request ran %d inferences", snap.Get(obs.InferenceRun))
	}
	srv.inflight.Add(-1)
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Cached {
		t.Fatalf("post-shed request degraded: %+v", resp)
	}
}

// TestConcurrentMissesMatchDirect: distinct plans posted at the same moment
// each run their own inference at once and answer exactly the single-plan
// reference, LimitPrefetch(Pred.PredictParallel(root)). Run under -race this
// also checks that concurrent forward passes on one model share nothing
// unsynchronized.
func TestConcurrentMissesMatchDirect(t *testing.T) {
	srv, w := fastServer(t, Options{})
	const n = 6
	insts := distinctInstances(t, srv, w, n)
	pl := plan.NewPlanner(srv.db)
	want := make([][]pageJSON, n)
	for k, i := range insts {
		q := w.Instances[i].Query
		root, err := pl.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = expectedPages(t, srv, fixtureSys, q, root)
	}
	snap := srv.metrics.Events().Snapshot()
	before := snap.Get(obs.InferenceRun)

	start := make(chan struct{})
	got := make([]predictResponse, n)
	var wg sync.WaitGroup
	for k, i := range insts {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			<-start
			got[k] = predictOK(t, srv, w, i)
		}(k, i)
	}
	close(start)
	wg.Wait()

	for k, i := range insts {
		if got[k].Cached || got[k].Fallback {
			t.Fatalf("instance %d: first request not a model answer: %+v", i, got[k])
		}
		if !reflect.DeepEqual(got[k].Pages, want[k]) {
			t.Fatalf("instance %d: concurrent miss %v, want %v", i, got[k].Pages, want[k])
		}
	}
	snap = srv.metrics.Events().Snapshot()
	if runs := snap.Get(obs.InferenceRun) - before; runs != n {
		t.Fatalf("inference_run grew by %d, want %d", runs, n)
	}
}

// TestQuantizedServer: Options.Quantize flips every model to int8 inference
// at construction; the server still answers and its answers stay
// self-consistent between the miss and cache-hit paths. Quantization is
// irreversible, so this test trains its own system instead of mutating the
// shared fixture's models.
func TestQuantizedServer(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	w := g.Workload("t91", 8, 1)
	mcfg := model.DefaultConfig()
	mcfg.Dim = 16
	mcfg.Heads = 2
	mcfg.Layers = 1
	mcfg.DecoderHidden = 32
	mcfg.Epochs = 10
	cfg := corepythia.DefaultConfig()
	cfg.Predictor = predictor.Options{Model: mcfg, ObservedOnly: true}
	cfg.Replay.BufferPages = 1024
	sys := corepythia.New(g.DB(), cfg)
	sys.Train("t91", w.Instances)
	srv := mustServer(t, g.DB(), sys, NewMetrics(nil), Options{Quantize: true})
	t.Cleanup(srv.Close)

	first := predictOK(t, srv, w, 0)
	if first.Fallback {
		t.Fatalf("quantized server fell back: %+v", first)
	}
	second := predictOK(t, srv, w, 0)
	if !second.Cached || !reflect.DeepEqual(second.Pages, first.Pages) {
		t.Fatalf("quantized cache hit diverges: %+v vs %+v", second, first)
	}
}
