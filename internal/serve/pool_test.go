package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/plan"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/storage"
)

// expectedPages computes the reference answer a system gives for one planned
// query — the pages any replica cloned from that system must serve.
func expectedPages(t *testing.T, srv *Server, sys *corepythia.System, q plan.Query, root *plan.Node) []pageJSON {
	t.Helper()
	tw := sys.Lookup(q)
	if tw == nil {
		t.Fatal("probe query did not match a trained workload")
	}
	var resp predictResponse
	srv.writePages(&resp, sys.LimitPrefetch(tw.Pred.PredictParallel(root)))
	return resp.Pages
}

// TestPoolCacheAffinity: with consistent-hash routing, each distinct plan is
// owned by exactly one replica — the pool's aggregate cache holds one entry
// per plan, not one per (plan, replica) — and repeats land on the owner as
// cache hits.
func TestPoolCacheAffinity(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 3})
	t.Cleanup(srv.Close)
	insts := distinctInstances(t, srv, w, 6)

	owner := map[int]int{}
	for _, i := range insts {
		first := predictOK(t, srv, w, i)
		if first.Cached {
			t.Fatalf("instance %d: first request claims a cache hit", i)
		}
		owner[i] = first.Replica
	}
	for _, i := range insts {
		again := predictOK(t, srv, w, i)
		if !again.Cached {
			t.Fatalf("instance %d: repeat was not a cache hit", i)
		}
		if again.Replica != owner[i] {
			t.Fatalf("instance %d: routed to replica %d then %d — no affinity", i, owner[i], again.Replica)
		}
	}

	st := srv.inf.Status()
	if len(st.Replicas) != 3 {
		t.Fatalf("status reports %d replicas, want 3", len(st.Replicas))
	}
	total := 0
	for _, r := range st.Replicas {
		total += r.CacheEntries
	}
	if total != len(insts) {
		t.Fatalf("pool holds %d cache entries for %d distinct plans — affinity should shard, not duplicate", total, len(insts))
	}
}

// TestSwapUnderLoad hammers a 2-replica pool with concurrent predictions
// while the serving models are swapped to a differently trained generation.
// Run under -race this is the zero-downtime pin: every request answers 200,
// and every response's pages equal exactly the generation it reports — no
// request ever observes a torn or half-loaded model.
func TestSwapUnderLoad(t *testing.T) {
	base, w := testServer(t)

	// Generation 2: same catalog and config, trained on a different instance
	// subset so its weights (and typically its predictions) differ from the
	// fixture's generation 1.
	cfg := fixtureSys.Config()
	cfg.Recorder = nil
	sys2 := corepythia.New(base.db, cfg)
	sys2.Train("t91", fixtureW.Instances[:10])
	var snap2 bytes.Buffer
	if err := sys2.Save(&snap2); err != nil {
		t.Fatal(err)
	}

	// Cache disabled so every request runs real inference through the serving
	// generation's weights — the strongest torn-model probe. Shedding and
	// queueing disabled so any non-200 is a real failure.
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{
		Replicas:     2,
		CacheEntries: -1,
		MaxInFlight:  -1,
		QueueDepth:   -1,
	})
	t.Cleanup(srv.Close)

	probes := distinctInstances(t, srv, w, 4)
	want := map[uint64][][]pageJSON{1: {}, 2: {}}
	bodies := make([][]byte, len(probes))
	pl := plan.NewPlanner(base.db)
	for k, i := range probes {
		q := w.Instances[i].Query
		root, err := pl.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		want[1] = append(want[1], expectedPages(t, srv, fixtureSys, q, root))
		want[2] = append(want[2], expectedPages(t, srv, sys2, q, root))
		bodies[k] = specBody(t, spec.FromQuery(q)).Bytes()
	}

	handler := srv.Handler()
	const workers, iters = 8, 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (g + it) % len(bodies)
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[k]))
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %s", g, rr.Code, rr.Body.String())
					return
				}
				var resp predictResponse
				if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
					errs <- err
					return
				}
				expected, known := want[resp.Generation]
				if !known {
					errs <- fmt.Errorf("worker %d: response from unknown generation %d", g, resp.Generation)
					return
				}
				if resp.Fallback || !reflect.DeepEqual(resp.Pages, expected[k]) {
					errs <- fmt.Errorf("worker %d: generation %d answered %v, want %v — torn model state",
						g, resp.Generation, resp.Pages, expected[k])
					return
				}
			}
		}(g)
	}

	// Mid-load: swap to generation 2. Swap must not fail and must not fail
	// any in-flight request.
	time.Sleep(10 * time.Millisecond)
	if err := srv.inf.Swap(bytes.NewReader(snap2.Bytes())); err != nil {
		t.Fatalf("swap under load: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.inf.Status()
	if st.Generation != 2 || st.Swaps != 1 {
		t.Fatalf("after swap: generation=%d swaps=%d, want 2/1", st.Generation, st.Swaps)
	}
	for _, r := range st.Replicas {
		if r.Generation != 2 {
			t.Fatalf("replica %d still on generation %d", r.ID, r.Generation)
		}
	}
	// Post-swap requests serve generation 2 only.
	resp := predictOK(t, srv, w, probes[0])
	if resp.Generation != 2 || !reflect.DeepEqual(resp.Pages, want[2][0]) {
		t.Fatalf("post-swap response %+v not from generation 2", resp)
	}
}

// TestSwapRejectsBadSnapshot: a corrupt or empty snapshot must leave the old
// generation serving untouched.
func TestSwapRejectsBadSnapshot(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 2})
	t.Cleanup(srv.Close)

	if err := srv.inf.Swap(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot did not error")
	}
	// An untrained system persists fine but must be refused for serving.
	empty := corepythia.New(base.db, fixtureSys.Config())
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.inf.Swap(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "no trained workloads") {
		t.Fatalf("empty snapshot error = %v", err)
	}
	st := srv.inf.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("failed swaps moved the generation: %+v", st)
	}
	if resp := predictOK(t, srv, w, 0); resp.Fallback {
		t.Fatalf("server degraded after rejected swaps: %+v", resp)
	}
}

// TestAdminReloadHTTP exercises the versioned admin surface end to end:
// reload from the configured snapshot, reload from an explicit path, typed
// errors, method guards, and the deprecated unversioned alias.
func TestAdminReloadHTTP(t *testing.T) {
	base, w := testServer(t)
	snap := filepath.Join(t.TempDir(), "model.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtureSys.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{SnapshotPath: snap})
	t.Cleanup(srv.Close)

	// Empty body → reload from the configured path.
	rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rr.Code, rr.Body.String())
	}
	var rel reloadResponse
	if err := json.NewDecoder(rr.Body).Decode(&rel); err != nil {
		t.Fatal(err)
	}
	if rel.Status != "ok" || rel.Generation != 2 || rel.Swaps != 1 || rel.Replicas != 1 || rel.Path != snap {
		t.Fatalf("reload response wrong: %+v", rel)
	}

	// Explicit body path → another swap.
	body := strings.NewReader(`{"path":` + jsonQuote(snap) + `}`)
	rr = doRequest(t, srv, http.MethodPost, "/v1/admin/reload", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("explicit-path reload status %d: %s", rr.Code, rr.Body.String())
	}

	// Topology endpoint reflects the swaps.
	rr = doRequest(t, srv, http.MethodGet, "/v1/admin/replicas", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("replicas status %d", rr.Code)
	}
	var st InfStatus
	if err := json.NewDecoder(rr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 3 || st.Swaps != 2 || len(st.Replicas) != 1 {
		t.Fatalf("replicas payload wrong: %+v", st)
	}
	// Requests still answer after two live swaps.
	if resp := predictOK(t, srv, w, 0); resp.Generation != 3 {
		t.Fatalf("serving generation %d, want 3", resp.Generation)
	}

	// Method guards.
	if rr := doRequest(t, srv, http.MethodGet, "/v1/admin/reload", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload status %d", rr.Code)
	}
	if rr := doRequest(t, srv, http.MethodPost, "/v1/admin/replicas", nil); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST replicas status %d", rr.Code)
	}
	// Malformed body → typed 400.
	rr = doRequest(t, srv, http.MethodPost, "/v1/admin/reload", strings.NewReader(`{"path":`))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", rr.Code)
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeInvalidSpec {
		t.Fatalf("bad body envelope: %+v", env)
	}
	// Nonexistent snapshot → typed 500.
	rr = doRequest(t, srv, http.MethodPost, "/v1/admin/reload",
		strings.NewReader(`{"path":"/nonexistent/model.snap"}`))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("missing file status %d: %s", rr.Code, rr.Body.String())
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeReloadFailed {
		t.Fatalf("missing file envelope: %+v", env)
	}

	// Deprecated unversioned alias answers with RFC 8594 headers.
	rr = doRequest(t, srv, http.MethodPost, "/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("alias status %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Deprecation") != "true" ||
		!strings.Contains(rr.Header().Get("Link"), "</v1/admin/reload>") {
		t.Fatalf("alias missing deprecation signalling: %v", rr.Header())
	}

	// A server with no snapshot configured refuses pathless reloads with the
	// typed 400.
	bare := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{})
	t.Cleanup(bare.Close)
	rr = doRequest(t, bare, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("no-snapshot status %d: %s", rr.Code, rr.Body.String())
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeNoSnapshot {
		t.Fatalf("no-snapshot envelope: %+v", env)
	}
}

// jsonQuote JSON-quotes a string for inline request bodies.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// stubInferencer lets Server tests script the model tier.
type stubInferencer struct {
	pred Prediction
	err  error
}

func (s *stubInferencer) Predict(context.Context, plan.Query, *plan.Node) (Prediction, error) {
	return s.pred, s.err
}

func (s *stubInferencer) Explain(root *plan.Node) Explanation { return explainPlan(root) }
func (s *stubInferencer) Workloads() []*corepythia.Trained    { return nil }
func (s *stubInferencer) Status() InfStatus                   { return InfStatus{Generation: 1} }
func (s *stubInferencer) Swap(io.Reader) error                { return nil }

// TestServerWithStubInferencer: the Inferencer seam lets tests drive the HTTP
// contract without training anything — and pins the error mapping from
// Inferencer sentinels to HTTP statuses.
func TestServerWithStubInferencer(t *testing.T) {
	base, w := testServer(t)
	stub := &stubInferencer{pred: Prediction{
		Workload:   "stubbed",
		Pages:      []storage.PageID{{Object: 1, Page: 7}},
		Replica:    3,
		Generation: 9,
	}}
	srv, err := NewWithInferencer(base.db, stub, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workload != "stubbed" || resp.Replica != 3 || resp.Generation != 9 || resp.PageCount != 1 {
		t.Fatalf("stubbed response wrong: %+v", resp)
	}

	// Sentinel error mapping.
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{ErrSaturated, http.StatusServiceUnavailable, CodeOverloaded},
		{errModelFault, http.StatusInternalServerError, CodeModelError},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadline},
		{context.Canceled, StatusClientClosedRequest, CodeClientGone},
	}
	for _, c := range cases {
		stub.err = c.err
		rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
		if rr.Code != c.status {
			t.Errorf("%v: status %d, want %d", c.err, rr.Code, c.status)
			continue
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != c.code {
			t.Errorf("%v: envelope code %q, want %q", c.err, env.Error.Code, c.code)
		}
	}
	if rr := doRequest(t, srv, http.MethodGet, "/v1/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("stub healthz status %d", rr.Code)
	}
}

// TestOptionsNormalize pins the zero=default / negative=disable convention
// and the rejected combinations.
func TestOptionsNormalize(t *testing.T) {
	norm, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.RequestTimeout != 5*time.Second || norm.MaxInFlight != 64 ||
		norm.MaxBodyBytes != 1<<20 || norm.BreakerThreshold != 5 ||
		norm.BreakerCooldown != 10*time.Second || norm.CacheEntries != 4096 ||
		norm.Replicas != 1 || norm.QueueDepth != 32 ||
		norm.QuarantineThreshold != 5 || norm.QuarantineBackoff != time.Second ||
		norm.QuarantineProbes != 3 || norm.MaxFailovers != 2 || norm.HedgeAfter != 0 {
		t.Fatalf("defaults wrong: %+v", norm)
	}
	norm, err = Options{MaxInFlight: -1, MaxBodyBytes: -1, CacheEntries: -1, QueueDepth: -1,
		BreakerThreshold: -1, QuarantineThreshold: -1, MaxFailovers: -1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.MaxInFlight != 0 || norm.MaxBodyBytes != 0 || norm.CacheEntries != 0 ||
		norm.QueueDepth != 0 || norm.BreakerThreshold != 0 ||
		norm.QuarantineThreshold != 0 || norm.MaxFailovers != 0 {
		t.Fatalf("negatives did not disable: %+v", norm)
	}

	invalid := []Options{
		{Replicas: -1},
		{BreakerThreshold: 3, BreakerCooldown: -time.Second},
		{QuarantineThreshold: 3, QuarantineBackoff: -time.Second},
		{HedgeAfter: -time.Millisecond, Replicas: 2},
		{HedgeAfter: 10 * time.Millisecond},              // hedging needs a successor
		{HedgeAfter: 10 * time.Millisecond, Replicas: 1}, // explicit single replica
	}
	for i, o := range invalid {
		if _, err := o.Normalize(); err == nil {
			t.Errorf("case %d: %+v normalized without error", i, o)
		}
	}
	// New surfaces the validation error instead of building a broken server.
	base, _ := testServer(t)
	if _, err := New(base.db, fixtureSys, nil, Options{Replicas: -3}); err == nil {
		t.Fatal("New accepted invalid options")
	}
}
