package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
)

// poolOf unwraps the server's Inferencer as a Pool.
func poolOf(t *testing.T, srv *Server) *Pool {
	t.Helper()
	p, ok := srv.inf.(*Pool)
	if !ok {
		t.Fatalf("inferencer is %T, want *Pool", srv.inf)
	}
	return p
}

// TestPoolReroutesAroundBlockedReplica pins the satellite contract: with one
// replica's breaker forced open (inside its cooldown), requests whose plans
// that replica owns reroute to ring successors — still 200, counted as
// failovers — and the successor's cache absorbs the shard, so repeats are
// hits. When the breaker un-blocks, traffic returns to the owner.
func TestPoolReroutesAroundBlockedReplica(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{Replicas: 3})
	t.Cleanup(srv.Close)
	insts := distinctInstances(t, srv, w, 6)

	// Round 1 maps each plan to its owning replica (and warms owner caches).
	owner := map[int]int{}
	for _, i := range insts {
		owner[i] = predictOK(t, srv, w, i).Replica
	}
	target := owner[insts[0]]

	// Force the target's breaker open on a fake clock: open inside an
	// unelapsed cooldown means blocked, so the pool must route around it.
	p := poolOf(t, srv)
	ins := p.cur.Load().instances[target]
	now := time.Unix(0, 0)
	ins.breaker.now = func() time.Time { return now }
	for i := 0; i < srv.opts.BreakerThreshold; i++ {
		ins.breaker.failure()
	}
	if !ins.breaker.blocked() {
		t.Fatalf("breaker state %s not blocked after %d failures", ins.breaker.State(), srv.opts.BreakerThreshold)
	}

	// Every plan still answers 200; the target's shard lands on successors.
	rerouted := map[int]int{}
	for _, i := range insts {
		resp := predictOK(t, srv, w, i)
		if resp.Fallback {
			t.Fatalf("instance %d: fallback while 2/3 replicas are healthy: %+v", i, resp)
		}
		if resp.Replica == target {
			t.Fatalf("instance %d: routed to the blocked replica %d", i, target)
		}
		rerouted[i] = resp.Replica
	}
	if m.failovers.Load() == 0 {
		t.Fatal("rerouting recorded no failovers")
	}
	if snap := m.Events().Snapshot(); snap.Get(obs.ReplicaFailover) == 0 {
		t.Fatal("no replica_failover events recorded")
	}

	// Hit-rate recovery: the successor cached the rerouted shard, so repeats
	// are cache hits on the same successor.
	for _, i := range insts {
		if owner[i] != target {
			continue
		}
		again := predictOK(t, srv, w, i)
		if !again.Cached || again.Replica != rerouted[i] {
			t.Fatalf("instance %d: rerouted repeat cached=%v replica=%d, want hit on %d",
				i, again.Cached, again.Replica, rerouted[i])
		}
	}

	// Cooldown elapses: the half-open trial goes back to the owner, which
	// answers from its (still warm) cache and closes the breaker.
	now = now.Add(srv.opts.BreakerCooldown + time.Second)
	resp := predictOK(t, srv, w, insts[0])
	if resp.Replica != target || !resp.Cached {
		t.Fatalf("after cooldown: replica=%d cached=%v, want cached answer from owner %d",
			resp.Replica, resp.Cached, target)
	}
}

// TestReplicaShedEnvelopeParity pins the satellite contract: a replica-level
// admission shed surfaces exactly like a server-level shed — 503, Retry-After,
// and the same typed JSON envelope.
func TestReplicaShedEnvelopeParity(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:     2,
		QueueDepth:   1,
		MaxFailovers: -1, // no failover: the owner's shed must reach the client
		CacheEntries: -1,
	})
	t.Cleanup(srv.Close)

	// Fill every replica's work queue so admission sheds wherever the plan
	// routes.
	p := poolOf(t, srv)
	for _, ins := range p.cur.Load().instances {
		ins.queue <- struct{}{}
	}
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("replica shed missing Retry-After")
	}
	if env := decodeEnvelope(t, rr); env.Error.Code != CodeOverloaded {
		t.Fatalf("envelope code %q, want %q", env.Error.Code, CodeOverloaded)
	}
	if m.sheds.Load() != 1 {
		t.Fatalf("sheds counter %d, want 1", m.sheds.Load())
	}
	var replicaSheds uint64
	for _, r := range srv.inf.Status().Replicas {
		replicaSheds += r.Shed
	}
	if replicaSheds != 1 {
		t.Fatalf("replica shed counters sum to %d, want 1", replicaSheds)
	}

	// Draining the queues restores service on the same server.
	for _, ins := range p.cur.Load().instances {
		<-ins.queue
	}
	if rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w)); rr.Code != http.StatusOK {
		t.Fatalf("post-shed status %d: %s", rr.Code, rr.Body.String())
	}
}

// TestPoolFailsOverSaturatedReplica: with failover enabled, a saturated
// owner's shard answers 200 from a ring successor instead of 503.
func TestPoolFailsOverSaturatedReplica(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:     3,
		QueueDepth:   1,
		CacheEntries: -1,
	})
	t.Cleanup(srv.Close)

	first := predictOK(t, srv, w, 0)
	owner := first.Replica

	p := poolOf(t, srv)
	p.cur.Load().instances[owner].queue <- struct{}{}
	resp := predictOK(t, srv, w, 0)
	if resp.Replica == owner || resp.Fallback {
		t.Fatalf("saturated owner %d still served (or fallback): %+v", owner, resp)
	}
	if m.failovers.Load() == 0 {
		t.Fatal("failover not counted")
	}
	if shed := p.cur.Load().instances[owner].shed.Load(); shed != 1 {
		t.Fatalf("owner shed counter %d, want 1", shed)
	}
}

// TestChaosReplicaLifecycle is the acceptance drill: with a seeded replica
// fault plan killing one of three replicas' inferences, the pool quarantines
// it, fails its shard over to ring successors, re-admits it via backoff
// probes once the fault clears, and no request ever errors (0% < the 1%
// acceptance bound). Deterministic — ReplicaRate 1 targets exactly one
// replica and the probe clock is faked.
func TestChaosReplicaLifecycle(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:            3,
		CacheEntries:        -1, // every request exercises the model path
		BreakerThreshold:    -1, // isolate the health machinery from the breaker
		QuarantineThreshold: 3,
		QuarantineBackoff:   time.Minute,
		QuarantineProbes:    2,
	})
	t.Cleanup(srv.Close)
	insts := distinctInstances(t, srv, w, 6)

	// Healthy round: learn which replica owns the probe plan.
	target := predictOK(t, srv, w, insts[0]).Replica
	p := poolOf(t, srv)
	ins := p.cur.Load().instances[target]
	now := time.Unix(0, 0)
	ins.health.now = func() time.Time { return now }

	// Kill the target's model path. Every request for its shard fails over:
	// the client sees 200 from a successor while the target racks up health
	// failures.
	srv.SetFault(fault.New(fault.Plan{ReplicaRate: 1, ReplicaIndex: target}, 7))
	for round := 0; round < 3; round++ {
		resp := predictOK(t, srv, w, insts[0])
		if resp.Fallback || resp.Replica == target {
			t.Fatalf("round %d: faulted replica %d answered (or fallback): %+v", round, target, resp)
		}
	}
	if st := ins.health.State(); st != "quarantined" {
		t.Fatalf("after %d faulted requests health is %s, want quarantined", 3, st)
	}

	// The topology and stats surfaces both show the quarantine.
	for _, r := range srv.inf.Status().Replicas {
		want := "healthy"
		if r.ID == target {
			want = "quarantined"
		}
		if r.Health != want {
			t.Fatalf("replica %d health %q, want %q", r.ID, r.Health, want)
		}
	}
	var stats statsResponse
	rr := doRequest(t, srv, http.MethodGet, "/stats", nil)
	if err := json.NewDecoder(rr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.HealthState != "quarantined" {
		t.Fatalf("/stats health_state %q, want quarantined", stats.HealthState)
	}
	if stats.Failovers == 0 {
		t.Fatal("/stats records no failovers")
	}

	// While quarantined (backoff unelapsed), the target is skipped outright —
	// no probe, no attempt, just a successor answering.
	if resp := predictOK(t, srv, w, insts[0]); resp.Replica == target || resp.Fallback {
		t.Fatalf("quarantined replica still serving: %+v", resp)
	}
	if snap := m.Events().Snapshot(); snap.Get(obs.ReplicaProbe) != 0 {
		t.Fatalf("%d probes admitted before the backoff elapsed", snap.Get(obs.ReplicaProbe))
	}

	// Fault clears and the backoff elapses: the next request is the probe,
	// served by the target itself; QuarantineProbes consecutive successes
	// re-admit it.
	srv.SetFault(nil)
	now = now.Add(time.Minute)
	for i := 0; i < 2; i++ {
		resp := predictOK(t, srv, w, insts[0])
		if resp.Replica != target || resp.Fallback {
			t.Fatalf("probe %d: served by %d, want recovering target %d", i, resp.Replica, target)
		}
	}
	if st := ins.health.State(); st != "healthy" {
		t.Fatalf("after %d probe successes health is %s, want healthy", 2, st)
	}
	for _, r := range srv.inf.Status().Replicas {
		if r.Health != "healthy" {
			t.Fatalf("replica %d health %q after recovery", r.ID, r.Health)
		}
	}

	// The full lifecycle left its event trail: quarantine, probe, recovery,
	// and at least one failover per faulted round.
	snap := m.Events().Snapshot()
	if snap.Get(obs.ReplicaQuarantined) < 1 || snap.Get(obs.ReplicaProbe) < 1 ||
		snap.Get(obs.ReplicaRecovered) < 1 || snap.Get(obs.ReplicaFailover) < 3 {
		t.Fatalf("lifecycle events wrong: quarantined=%d probe=%d recovered=%d failover=%d",
			snap.Get(obs.ReplicaQuarantined), snap.Get(obs.ReplicaProbe),
			snap.Get(obs.ReplicaRecovered), snap.Get(obs.ReplicaFailover))
	}
	// Every request in this drill answered 200 (predictInstance fails the
	// test otherwise): the end-to-end error rate is 0%, within the 1% bound.
}

// TestPoolDegradedWhenAllQuarantined: when every candidate replica is
// quarantined with no probe due, the pool answers the degraded fallback —
// prefetching is advisory, so degraded beats unavailable.
func TestPoolDegradedWhenAllQuarantined(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{
		Replicas:            2,
		QuarantineThreshold: 1,
		QuarantineBackoff:   time.Hour, // no probe within the test's lifetime
		CacheEntries:        -1,
	})
	t.Cleanup(srv.Close)

	p := poolOf(t, srv)
	for _, ins := range p.cur.Load().instances {
		ins.health.failure()
	}
	rr := doRequest(t, srv, http.MethodPost, "/v1/predict", matchedBody(t, w))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp predictResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Fallback || resp.Degraded != "no_healthy_replica" || resp.Replica != -1 {
		t.Fatalf("all-quarantined response %+v, want degraded fallback", resp)
	}
}

// TestSwapRollbackOnReplicaBuildFault pins the transactional-swap contract:
// an injected fault while building one standby replica fails the whole swap,
// tears the partial standby down, and leaves the old generation serving
// untouched. Clearing the fault lets the same snapshot swap cleanly.
func TestSwapRollbackOnReplicaBuildFault(t *testing.T) {
	base, w := testServer(t)
	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 2})
	t.Cleanup(srv.Close)
	var snap bytes.Buffer
	if err := fixtureSys.Save(&snap); err != nil {
		t.Fatal(err)
	}

	srv.SetFault(fault.New(fault.Plan{ReplicaRate: 1, ReplicaIndex: 1}, 42))
	err := srv.inf.Swap(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "standby replica 1") {
		t.Fatalf("swap error = %v, want standby replica 1 build fault", err)
	}
	st := srv.inf.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("failed swap moved the generation: %+v", st)
	}
	srv.SetFault(nil)
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Generation != 1 {
		t.Fatalf("old generation degraded after rolled-back swap: %+v", resp)
	}

	// Same snapshot, fault cleared: the swap completes.
	if err := srv.inf.Swap(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("post-rollback swap: %v", err)
	}
	if st := srv.inf.Status(); st.Generation != 2 || st.Swaps != 1 {
		t.Fatalf("post-rollback swap state: %+v", st)
	}
}

// TestAdminReloadCorruptSnapshot: reloading from a truncated, zero-length or
// oversized-header snapshot answers a typed 422 envelope and the old
// generation keeps serving.
func TestAdminReloadCorruptSnapshot(t *testing.T) {
	base, w := testServer(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	var buf bytes.Buffer
	if err := fixtureSys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.snap")
	if err := os.WriteFile(truncated, buf.Bytes()[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.snap")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A header declaring 2^40 payload bytes: rejected before the payload is
	// read, whatever follows.
	oversized := filepath.Join(dir, "oversized.snap")
	hdr := append([]byte{}, buf.Bytes()[:8]...)
	hdr = binary.BigEndian.AppendUint64(hdr, 1<<40)
	if err := os.WriteFile(oversized, append(hdr, buf.Bytes()[16:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := mustServer(t, base.db, fixtureSys, NewMetrics(nil), Options{Replicas: 2, SnapshotPath: good})
	t.Cleanup(srv.Close)

	for _, path := range []string{truncated, empty, oversized} {
		rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload",
			strings.NewReader(`{"path":`+jsonQuote(path)+`}`))
		if rr.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d: %s", filepath.Base(path), rr.Code, rr.Body.String())
		}
		if env := decodeEnvelope(t, rr); env.Error.Code != CodeSnapshotCorrupt {
			t.Fatalf("%s: envelope code %q, want %q", filepath.Base(path), env.Error.Code, CodeSnapshotCorrupt)
		}
	}
	st := srv.inf.Status()
	if st.Generation != 1 || st.Swaps != 0 {
		t.Fatalf("corrupt reloads moved the generation: %+v", st)
	}
	if resp := predictOK(t, srv, w, 0); resp.Fallback || resp.Generation != 1 {
		t.Fatalf("old generation degraded after corrupt reloads: %+v", resp)
	}

	// The intact file still reloads on the same server.
	rr := doRequest(t, srv, http.MethodPost, "/v1/admin/reload", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("good reload status %d: %s", rr.Code, rr.Body.String())
	}
	if st := srv.inf.Status(); st.Generation != 2 {
		t.Fatalf("good reload did not swap: %+v", st)
	}
}

// TestPoolHedging: with hedging armed and a floor-level delay, requests race
// a second attempt on the ring successor. Everything still answers 200, the
// hedge counter moves, and canceled losers leave every replica healthy.
func TestPoolHedging(t *testing.T) {
	base, w := testServer(t)
	m := NewMetrics(nil)
	srv := mustServer(t, base.db, fixtureSys, m, Options{
		Replicas:     2,
		HedgeAfter:   time.Nanosecond, // hedge essentially immediately
		CacheEntries: -1,              // keep both attempts on the inference path
	})
	t.Cleanup(srv.Close)
	insts := distinctInstances(t, srv, w, 4)

	for round := 0; round < 3; round++ {
		for _, i := range insts {
			resp := predictOK(t, srv, w, i)
			if resp.Fallback {
				t.Fatalf("hedged request %d degraded: %+v", i, resp)
			}
		}
	}
	if m.hedges.Load() == 0 {
		t.Fatal("no hedges launched with a 1ns hedge delay")
	}
	// Losers were canceled, not failed: nothing quarantined, breakers closed.
	for _, r := range srv.inf.Status().Replicas {
		if r.Health != "healthy" || r.Breaker != "closed" {
			t.Fatalf("replica %d after hedging: health=%s breaker=%s", r.ID, r.Health, r.Breaker)
		}
	}
	var stats statsResponse
	rr := doRequest(t, srv, http.MethodGet, "/stats", nil)
	if err := json.NewDecoder(rr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Hedges == 0 {
		t.Fatal("/stats request_hedges is zero")
	}
}
