package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/serve"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// clients is the closed loop's client count: each client goroutine holds
// one connection and sends its next request only after the previous one
// (and its feedback post) completed.
const clients = 2

// predictWorkload sizes one of the two /v1/predict workloads.
type predictWorkload struct {
	fixtureSpec
	replicas int
	// hot draws every request from a corpus of executed queries whose
	// plans the warm-up pass caches; otherwise each position of the stream
	// is a freshly generated query.
	hot bool
	// corpus is the hot corpus size; perSecond is how many fresh queries a
	// miss stream holds per measured second. Positions past the end wrap,
	// but the stream is longer than the server's prediction cache, so a
	// wrapped position finds its plan evicted and still misses.
	corpus, perSecond int
	// feedback is the probability that a 2xx predict is followed by a
	// /v1/feedback post carrying the query's true pages.
	feedback float64
	// sample answers, at seeded positions below sampleSpan, are kept and
	// checked against the oracle after the measured phase. A hot run checks
	// every answer as it arrives instead.
	sample, sampleSpan int
	layerSample        int // requests the traced run's layer pass decomposes
	round              roundSpec
}

var missSpec = predictWorkload{
	fixtureSpec: fixtureSpec{template: "t18", sf: 4, train: 16, eval: 128, epochs: 5, setups: 3},
	replicas:    1,
	perSecond:   400,
	sample:      128, sampleSpan: 512,
	layerSample: 32,
	round:       replaySpec.round,
}

var hotSpec = predictWorkload{
	fixtureSpec: fixtureSpec{template: "t91", sf: 8, train: 16, eval: 128, epochs: 5, setups: 3},
	replicas:    2,
	hot:         true,
	corpus:      2000,
	feedback:    0.5,
	layerSample: 32,
	round:       replaySpec.round,
}

// entry is one request the stream can send.
type entry struct {
	body []byte
	// Hot entries only: the query's true pages as the feedback body spells
	// them, and the oracle's answer.
	truth  json.RawMessage
	expect []pageJSON
}

// stream is the seeded request sequence: position → entry, plus the
// sampled positions whose answers are kept.
type stream struct {
	w       predictWorkload
	seed    uint64
	entries []entry
	warm    [][]byte // untimed requests that fill caches before timing
	sampled []bool   // by position below sampleSpan
}

func (s *stream) pick(pos int64) *entry {
	if s.w.hot {
		return &s.entries[splitmix64(s.seed^uint64(pos))%uint64(len(s.entries))]
	}
	return &s.entries[pos%int64(len(s.entries))]
}

func (s *stream) wantFeedback(pos int64) bool {
	u := float64(splitmix64(^s.seed^uint64(pos))>>11) / (1 << 53)
	return u < s.w.feedback
}

// buildStream draws the run's inputs from seed.
func buildStream(fx *fixture, w predictWorkload, seed uint64, measure time.Duration, tr *tracer, parent int) (*stream, error) {
	s := &stream{w: w, seed: seed, sampled: make([]bool, w.sampleSpan)}
	for _, pos := range rand.New(rand.NewSource(int64(seed))).Perm(w.sampleSpan)[:w.sample] {
		s.sampled[pos] = true
	}
	if !w.hot {
		n := max(w.perSecond*int(measure/time.Second), w.sampleSpan)
		for _, q := range fx.gen.Queries(w.template, n, seed) {
			body, err := encodeQuery(q)
			if err != nil {
				return nil, err
			}
			s.entries = append(s.entries, entry{body: body})
		}
		// One untimed request drawn apart from the stream lets the server
		// finish its lazy set-up without caching a streamed plan.
		warm, err := encodeQuery(fx.gen.Queries(w.template, 1, ^seed)[0])
		if err != nil {
			return nil, err
		}
		s.warm = [][]byte{warm}
		return s, nil
	}
	sp := tr.begin("workload.build", parent, 0)
	corpus := fx.gen.Workload(w.template, w.corpus, seed)
	tr.end(sp, 1)
	// The oracle's answer per distinct plan, keyed like the server's cache.
	answers := map[uint64][]pageJSON{}
	for _, inst := range corpus.Instances {
		body, err := encodeQuery(inst.Query)
		if err != nil {
			return nil, err
		}
		truth, err := json.Marshal(fx.pagesJSON(inst.Pages))
		if err != nil {
			return nil, fmt.Errorf("encoding true pages: %w", err)
		}
		q, root, err := fx.planBody(body)
		if err != nil {
			return nil, err
		}
		tw := fx.sys.Lookup(q)
		if tw == nil {
			return nil, fmt.Errorf("hot corpus query %d matches no trained workload", inst.Query.Instance)
		}
		fp := predictor.Fingerprint(tw.Pred.EncodePlan(root))
		expect, ok := answers[fp]
		if !ok {
			expect = fx.pagesJSON(fx.sys.LimitPrefetch(tw.Pred.Predict(root)))
			answers[fp] = expect
		}
		s.entries = append(s.entries, entry{body: body, truth: truth, expect: expect})
		s.warm = append(s.warm, body)
	}
	return s, nil
}

// stack is the serving stack under test, on a loopback TCP listener.
type stack struct {
	srv    *serve.Server
	http   *http.Server
	serves sync.WaitGroup
	base   string
	client *http.Client
}

func startStack(fx *fixture, replicas int) (*stack, error) {
	srv, err := serve.New(fx.gen.DB(), fx.sys, nil, serve.Options{Replicas: replicas})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	st, err := newStack(srv, srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return st, nil
}

// newStack serves h on a fresh loopback listener; close tears it down
// together with srv.
func newStack(srv *serve.Server, h http.Handler) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	st := &stack{
		srv:  srv,
		http: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
	st.serves.Add(1)
	go func() {
		defer st.serves.Done()
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = st.http.Serve(ln)
	}()
	return st, nil
}

// close stops the server and waits for its serving goroutine to end.
func (st *stack) close() {
	st.client.CloseIdleConnections()
	_ = st.http.Close() // closing the listener is all that can fail; nothing is left to release
	st.serves.Wait()
	st.srv.Close()
}

// answer is the part of a /v1/predict response the benchmark reads.
type answer struct {
	PredictionID string     `json:"prediction_id"`
	Pages        []pageJSON `json:"pages"`
	ElapsedMS    float64    `json:"elapsed_ms"`
}

// post sends one JSON body and decodes a 200 answer into out (nil to
// discard it).
func (st *stack) post(path string, body []byte, out any) error {
	resp, err := st.client.Post(st.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s answered %d", path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s: decoding answer: %w", path, err)
		}
	}
	// Drain to EOF so the connection goes back to the pool.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (st *stack) feedback(id string, truth json.RawMessage) error {
	body, err := json.Marshal(struct {
		PredictionID string          `json:"prediction_id"`
		Pages        json.RawMessage `json:"pages"`
	}{id, truth})
	if err != nil {
		return err
	}
	return st.post("/v1/feedback", body, nil)
}

// predictState is one set-up of a predict workload.
type predictState struct {
	fx *fixture
	s  *stream
	st *stack
}

func setupPredict(w predictWorkload, p params) (*predictState, error) {
	root := p.tr.begin("setup", 0, 0)
	defer p.tr.end(root, 1)
	fx, err := buildFixture(w.fixtureSpec, p.tr, root)
	if err != nil {
		return nil, err
	}
	s, err := buildStream(fx, w, p.seed, p.measure, p.tr, root)
	if err != nil {
		return nil, err
	}
	sp := p.tr.begin("serve.start", root, 0)
	st, err := startStack(fx, w.replicas)
	p.tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = p.tr.begin("serve.warmup", root, 0)
	defer p.tr.end(sp, 1)
	for _, body := range s.warm {
		if err := st.post("/v1/predict", body, nil); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &predictState{fx: fx, s: s, st: st}, nil
}

// clientStats is one client's record of a measured phase.
type clientStats struct {
	attempted, failed           int64
	predicts, feedbacks         int64
	rttMS, serverMS, feedbackMS []float64
	firstErr                    error
}

func (c *clientStats) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *clientStats) merge(o *clientStats) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.predicts += o.predicts
	c.feedbacks += o.feedbacks
	c.rttMS = append(c.rttMS, o.rttMS...)
	c.serverMS = append(c.serverMS, o.serverMS...)
	c.feedbackMS = append(c.feedbackMS, o.feedbackMS...)
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// load drives the closed loop. Positions are handed out in order across
// phases, so a traced run sends the same stream as a timed one.
type load struct {
	ps      *predictState
	next    atomic.Int64
	answers [][]pageJSON // kept answers by position below sampleSpan
	got     []bool
}

// one sends the request at pos, checks its answer, and follows it with a
// feedback post when the stream asks for one.
func (l *load) one(pos int64, cs *clientStats, tr *tracer) {
	e := l.ps.s.pick(pos)
	req := tr.begin("request", 0, pos)
	defer tr.end(req, 1)
	sp := tr.begin("serve.predict", req, pos)
	t0 := time.Now()
	var ans answer
	err := l.ps.st.post("/v1/predict", e.body, &ans)
	rtt := time.Since(t0)
	tr.end(sp, 1)
	cs.attempted++
	if err != nil {
		cs.fail(err)
		return
	}
	if e.expect != nil && !slices.Equal(ans.Pages, e.expect) {
		cs.fail(fmt.Errorf("position %d: answer differs from the oracle", pos))
		return
	}
	cs.predicts++
	cs.rttMS = append(cs.rttMS, ms(rtt))
	cs.serverMS = append(cs.serverMS, ans.ElapsedMS)
	if pos < int64(len(l.got)) && l.ps.s.sampled[pos] {
		l.answers[pos] = ans.Pages
		l.got[pos] = true
	}
	if !l.ps.s.wantFeedback(pos) {
		return
	}
	sp = tr.begin("serve.feedback", req, pos)
	t1 := time.Now()
	err = l.ps.st.feedback(ans.PredictionID, e.truth)
	fb := time.Since(t1)
	tr.end(sp, 1)
	cs.attempted++
	if err != nil {
		cs.fail(fmt.Errorf("feedback: %w", err))
		return
	}
	cs.feedbacks++
	cs.feedbackMS = append(cs.feedbackMS, ms(fb))
}

// run drives the closed loop for d and returns the merged record.
func (l *load) run(d time.Duration, tr *tracer) (clientStats, time.Duration) {
	per := make([]clientStats, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(cs *clientStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.one(l.next.Add(1)-1, cs, tr)
			}
		}(&per[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all clientStats
	for i := range per {
		all.merge(&per[i])
	}
	return all, elapsed
}

// runPredict measures one /v1/predict workload.
func runPredict(w predictWorkload, p params) (*outcome, error) {
	o := newOutcome()
	setups := w.setups
	if p.traced() {
		setups = 1
	}
	ps, setupS, err := repeatSetup(setups,
		func() (*predictState, error) { return setupPredict(w, p) },
		func(ps *predictState) { ps.st.close() })
	if err != nil {
		return nil, err
	}
	defer ps.st.close()
	o.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups", setups))

	l := &load{ps: ps, answers: make([][]pageJSON, w.sampleSpan), got: make([]bool, w.sampleSpan)}
	before, err := ps.st.scrape()
	if err != nil {
		return nil, err
	}
	runtime.GC() // collect set-up garbage before timing
	runtime0 := readRuntime()
	var all, untraced, traced clientStats
	var elapsed time.Duration
	if p.traced() {
		var e1, e2 time.Duration
		untraced, e1 = l.run(p.measure/2, nil)
		traced, e2 = l.run(p.measure-p.measure/2, p.tr)
		all.merge(&untraced)
		all.merge(&traced)
		elapsed = e1 + e2
	} else {
		all, elapsed = l.run(p.measure, nil)
	}
	runtime1 := readRuntime()
	heap := heapLiveMB()
	after, err := ps.st.scrape()
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = all.attempted, all.failed
	if all.firstErr != nil {
		o.problem("%d of %d operations failed, first: %v", all.failed, all.attempted, all.firstErr)
	}

	// Sampled positions the measured phase did not reach are sent now,
	// untimed, so the checked sample never depends on throughput.
	for pos, want := range ps.s.sampled {
		if !want || l.got[pos] {
			continue
		}
		var ans answer
		o.attempted++
		if err := ps.st.post("/v1/predict", ps.s.pick(int64(pos)).body, &ans); err != nil {
			o.failed++
			o.problem("sample position %d: %v", pos, err)
			continue
		}
		l.answers[pos], l.got[pos] = ans.Pages, true
	}
	for pos, want := range ps.s.sampled {
		if !want || !l.got[pos] {
			continue
		}
		expect, err := ps.fx.oracle(ps.s.pick(int64(pos)).body)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		o.attempted++
		if !slices.Equal(l.answers[pos], expect) {
			o.failed++
			o.problem("position %d: answer differs from the oracle", pos)
		}
	}
	if err := evaluate(ps, o); err != nil {
		return nil, err
	}
	fed := after.Quality.Scored - before.Quality.Scored
	if fed != uint64(all.feedbacks) {
		o.problem("server scored %d feedback posts, client sent %d", fed, all.feedbacks)
	}

	sorted := sortedCopy(all.rttMS)
	o.set("throughput_rps", float64(all.predicts)/elapsed.Seconds(),
		fmt.Sprintf("%d correct predicts in %.2fs, %d clients", all.predicts, elapsed.Seconds(), clients))
	o.setQuantile("latency_p50_ms", percentile(sorted, 0.50))
	o.setQuantile("latency_p90_ms", tailPercentile(all.rttMS, 0.90))
	o.notes["latency_p90_ms"] += tailNote(sorted)
	o.set("success_rate", 1-ratio(float64(o.failed), float64(o.attempted)),
		fmt.Sprintf("%d failed of %d attempted", o.failed, o.attempted))
	o.set("heap_live_mb", heap, "after a forced GC at the end of the measured phase")

	if !p.traced() {
		return o, nil
	}
	setRuntime(o, runtime0, runtime1, all.predicts)
	overhead := make([]float64, len(all.rttMS))
	for i := range overhead {
		overhead[i] = all.rttMS[i] - all.serverMS[i]
	}
	o.set("serve.infer_ms_p50", median(all.serverMS), fmt.Sprintf("server elapsed_ms, %d samples", len(all.serverMS)))
	o.set("serve.overhead_ms_p50", median(overhead), "client round trip minus server elapsed_ms")
	o.set("serve.feedback_ms_p50", median(all.feedbackMS), fmt.Sprintf("%d feedback posts", len(all.feedbackMS)))
	o.set("trace.overhead_ms_p50", median(traced.rttMS)-median(untraced.rttMS), "traced minus untraced predict p50")
	setServeStats(o, before, after, all.predicts)
	o.set("quality.feedback_scored", float64(fed), fmt.Sprintf("client sent %d", all.feedbacks))

	bodies := make([][]byte, 0, len(ps.s.entries))
	if w.hot {
		for _, e := range ps.s.entries {
			bodies = append(bodies, e.body)
		}
	} else {
		reached := min(int(l.next.Load()), len(ps.s.entries))
		for _, e := range ps.s.entries[:reached] {
			bodies = append(bodies, e.body)
		}
	}
	distinct, err := distinctRatio(ps.fx, bodies)
	if err != nil {
		return nil, err
	}
	o.set("workload.distinct_ratio", distinct, fmt.Sprintf("distinct plan fingerprints over %d requests", len(bodies)))
	layerBodies := make([][]byte, w.layerSample)
	for pos := range layerBodies {
		layerBodies[pos] = ps.s.pick(int64(pos)).body
	}
	if err := layerPass(ps.fx, layerBodies, p.tr, o); err != nil {
		return nil, err
	}
	setSpanMetrics(o, p.tr)
	setReplayAbsent(o)
	return o, nil
}

// evaluate posts the fixture's held-out queries after the measured phase,
// checks each answer against the oracle, and scores and replays the
// answers: the paper's metrics of what this server answers.
func evaluate(ps *predictState, o *outcome) error {
	pf := &prefetchSets{sys: ps.fx.sys, sets: map[*workload.Instance][]storage.PageID{}}
	for _, inst := range ps.fx.eval {
		body, err := encodeQuery(inst.Query)
		if err != nil {
			return err
		}
		expect, err := ps.fx.oracle(body)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		var ans answer
		o.attempted++
		if err := ps.st.post("/v1/predict", body, &ans); err != nil {
			o.failed++
			o.problem("held-out query %d: %v", inst.Query.Instance, err)
			continue
		}
		if !slices.Equal(ans.Pages, expect) {
			o.failed++
			o.problem("held-out query %d: answer differs from the oracle", inst.Query.Instance)
			continue
		}
		if pf.sets[inst], err = ps.fx.pageIDs(ans.Pages); err != nil {
			return err
		}
	}
	round := ps.s.w.round
	setQuality(o, simulate(ps.fx.sys, round.split(ps.fx.eval), round, pf), len(ps.fx.eval))
	if pf.inferred > 0 {
		o.problem("%d held-out queries had no checked answer to replay", pf.inferred)
	}
	return nil
}

// distinctRatio is the share of request bodies whose plans have distinct
// fingerprints: the share a plan-keyed cache cannot answer.
func distinctRatio(fx *fixture, bodies [][]byte) (float64, error) {
	seen := map[uint64]bool{}
	for _, body := range bodies {
		q, root, err := fx.planBody(body)
		if err != nil {
			return 0, err
		}
		tw := fx.sys.Lookup(q)
		if tw == nil {
			continue
		}
		seen[predictor.Fingerprint(tw.Pred.EncodePlan(root))] = true
	}
	return ratio(float64(len(seen)), float64(len(bodies))), nil
}
