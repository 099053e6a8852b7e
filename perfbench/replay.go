package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// roundSpec shapes one replay round: size queries arriving gap apart in
// virtual time, so their executions overlap and contend for the buffer
// pool, the OS cache and the disk channels.
type roundSpec struct {
	size int
	gap  time.Duration
}

// split cuts instances into consecutive rounds.
func (r roundSpec) split(insts []*workload.Instance) [][]*workload.Instance {
	var out [][]*workload.Instance
	for lo := 0; lo < len(insts); lo += r.size {
		out = append(out, insts[lo:min(lo+r.size, len(insts))])
	}
	return out
}

func (r roundSpec) arrivals(n int) []sim.Duration {
	out := make([]sim.Duration, n)
	for i := range out {
		out[i] = sim.Duration(i) * r.gap
	}
	return out
}

// prefetchSets maps each instance to the prefetch set Pythia's path runs
// with. lookup counts the instances it had to run inference for, which a
// run whose sets were all computed in set-up never does.
type prefetchSets struct {
	sys      *corepythia.System
	sets     map[*workload.Instance][]storage.PageID
	inferred int
}

func (p *prefetchSets) lookup(inst *workload.Instance) []storage.PageID {
	set, ok := p.sets[inst]
	if !ok {
		p.inferred++
		set = p.sys.Prefetch(inst)
	}
	return set
}

// simResult is the simulated outcome of a set of rounds on both paths.
type simResult struct {
	dflt, pythia []*replay.RunResult // per round
	score        quality.Score       // prefetch sets against the pages read
}

func (s *simResult) speedup() float64 {
	var d, p sim.Duration
	for i := range s.dflt {
		d += s.dflt[i].TotalElapsed()
		p += s.pythia[i].TotalElapsed()
	}
	return ratio(float64(d), float64(p))
}

// simulate replays every round on the default path and on Pythia's path,
// and scores each prefetch set against the pages its query read.
func simulate(sys *corepythia.System, rounds [][]*workload.Instance, r roundSpec, ps *prefetchSets) *simResult {
	res := &simResult{}
	for _, round := range rounds {
		arr := r.arrivals(len(round))
		res.dflt = append(res.dflt, sys.Run(round, arr, nil))
		res.pythia = append(res.pythia, sys.Run(round, arr, ps.lookup))
		for _, inst := range round {
			sc := quality.ScoreSets(sys.LimitPrefetch(ps.lookup(inst)), inst.Pages)
			res.score.Predicted += sc.Predicted
			res.score.Actual += sc.Actual
			res.score.TruePos += sc.TruePos
		}
	}
	return res
}

// setQuality records the paper's metrics of a simulation.
func setQuality(o *outcome, s *simResult, queries int) {
	note := fmt.Sprintf("exact, %d simulated queries", queries)
	o.set("prefetch_precision", s.score.Precision(), note)
	o.set("prefetch_recall", s.score.Recall(), note)
	o.set("replay_speedup", s.speedup(), fmt.Sprintf("simulated total elapsed, default / Pythia, %d queries", queries))
}

// sameElapsed reports whether two replays of one round produced identical
// virtual elapsed times for every query.
func sameElapsed(a, b *replay.RunResult) bool {
	if len(a.Queries) != len(b.Queries) {
		return false
	}
	for i := range a.Queries {
		if a.Queries[i].Elapsed != b.Queries[i].Elapsed {
			return false
		}
	}
	return true
}

// replayWorkload sizes replay-concurrent.
type replayWorkload struct {
	fixtureSpec
	round       roundSpec
	layerSample int // held-out queries the traced run's layer pass decomposes
}

var replaySpec = replayWorkload{
	fixtureSpec: fixtureSpec{template: "t91", sf: 16, train: 24, eval: 128, epochs: 5, setups: 3},
	round:       roundSpec{size: 16, gap: 2 * time.Millisecond},
	layerSample: 32,
}

// replayState is one set-up of replay-concurrent.
type replayState struct {
	fx     *fixture
	rounds [][]*workload.Instance // the held-out set, cut into rounds
	order  []int                  // the seeded order rounds are replayed in
	ps     *prefetchSets
}

func setupReplay(w replayWorkload, seed uint64, tr *tracer) (*replayState, error) {
	root := tr.begin("setup", 0, 0)
	defer tr.end(root, 1)
	fx, err := buildFixture(w.fixtureSpec, tr, root)
	if err != nil {
		return nil, err
	}
	ps := &prefetchSets{sys: fx.sys, sets: make(map[*workload.Instance][]storage.PageID, len(fx.eval))}
	for i, inst := range fx.eval {
		s := tr.begin("pythia.prefetch", root, int64(i))
		ps.sets[inst] = fx.sys.Prefetch(inst)
		tr.end(s, 1)
	}
	rounds := w.round.split(fx.eval)
	order := rand.New(rand.NewSource(int64(seed))).Perm(len(rounds))
	return &replayState{fx: fx, rounds: rounds, order: order, ps: ps}, nil
}

// runReplay measures replay-concurrent: rounds of overlapping held-out
// queries, each replayed on the default path and with Pythia's prefetch
// sets, which set-up computed so that the timed phase runs no inference.
func runReplay(w replayWorkload, p params) (*outcome, error) {
	o := newOutcome()
	setups := w.setups
	if p.traced() {
		setups = 1
	}
	st, setupS, err := repeatSetup(setups,
		func() (*replayState, error) { return setupReplay(w, p.seed, p.tr) },
		func(*replayState) {})
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups", setups))

	// The first pass over the pool is the reference every later replay of
	// the same round must reproduce exactly.
	ref := simulate(st.fx.sys, st.rounds, w.round, st.ps)
	setQuality(o, ref, len(st.fx.eval))

	arrivals := make([][]sim.Duration, len(st.rounds))
	requests := make([]int, len(st.rounds)) // page requests per round
	for k, round := range st.rounds {
		arrivals[k] = w.round.arrivals(len(round))
		for _, inst := range round {
			requests[k] += len(inst.Requests)
		}
	}
	type phase struct {
		roundMS                   []float64
		rounds, queries, requests int
		mismatches                int
		elapsed                   time.Duration
	}
	measure := func(d time.Duration, tr *tracer) phase {
		var ph phase
		start := time.Now()
		deadline := start.Add(d)
		for i := 0; time.Now().Before(deadline); i++ {
			k := st.order[i%len(st.order)]
			round := st.rounds[k]
			rs := tr.begin("replay.round", 0, int64(i))
			t0 := time.Now()
			ds := tr.begin("replay.default_pass", rs, int64(i))
			dflt := st.fx.sys.Run(round, arrivals[k], nil)
			tr.end(ds, 1)
			ps := tr.begin("replay.pythia_pass", rs, int64(i))
			pyth := st.fx.sys.Run(round, arrivals[k], st.ps.lookup)
			tr.end(ps, 1)
			ph.roundMS = append(ph.roundMS, ms(time.Since(t0)))
			tr.end(rs, 1)
			ph.rounds++
			ph.queries += 2 * len(round)
			ph.requests += 2 * requests[k]
			if !sameElapsed(dflt, ref.dflt[k]) || !sameElapsed(pyth, ref.pythia[k]) {
				ph.mismatches++
			}
		}
		ph.elapsed = time.Since(start)
		return ph
	}

	runtime.GC() // collect set-up garbage before timing
	runtime0 := readRuntime()
	var all, untraced, traced phase
	if p.traced() {
		untraced = measure(p.measure/2, nil)
		traced = measure(p.measure-p.measure/2, p.tr)
		all = untraced
		all.roundMS = append(all.roundMS, traced.roundMS...)
		all.rounds += traced.rounds
		all.queries += traced.queries
		all.requests += traced.requests
		all.mismatches += traced.mismatches
		all.elapsed += traced.elapsed
	} else {
		all = measure(p.measure, nil)
	}
	runtime1 := readRuntime()
	heap := heapLiveMB()
	o.attempted, o.failed = int64(all.rounds), int64(all.mismatches)
	if all.mismatches > 0 {
		o.problem("%d of %d timed rounds did not repeat their reference virtual elapsed times", all.mismatches, all.rounds)
	}

	// A repeated default pass must reproduce the reference exactly; when
	// the measured phase was too short to come back to a round, replay it
	// once more here.
	if all.rounds < 2*len(st.rounds) {
		for k, round := range st.rounds {
			o.attempted++
			if !sameElapsed(st.fx.sys.Run(round, arrivals[k], nil), ref.dflt[k]) {
				o.failed++
				o.problem("default pass of round %d did not repeat its virtual elapsed times", k)
			}
		}
	}
	if st.ps.inferred > 0 {
		o.problem("%d prefetch sets were inferred after set-up", st.ps.inferred)
	}

	sorted := sortedCopy(all.roundMS)
	o.set("throughput_rps", float64(all.queries)/all.elapsed.Seconds(),
		fmt.Sprintf("queries replayed per host second, %d rounds of %d queries on both paths", all.rounds, w.round.size))
	o.setQuantile("latency_p50_ms", percentile(sorted, 0.50))
	o.setQuantile("latency_p90_ms", tailPercentile(all.roundMS, 0.90))
	o.notes["latency_p90_ms"] += tailNote(sorted)
	o.set("success_rate", 1-ratio(float64(o.failed), float64(o.attempted)), "")
	o.set("heap_live_mb", heap, "after a forced GC at the end of the measured phase")

	if !p.traced() {
		return o, nil
	}
	setServeAbsent(o)
	setRuntime(o, runtime0, runtime1, int64(all.queries))
	o.set("trace.overhead_ms_p50", median(traced.roundMS)-median(untraced.roundMS), "traced minus untraced round p50")
	o.set("replay.requests_per_s", float64(all.requests)/all.elapsed.Seconds(), "page requests replayed per host second")
	o.set("replay.allocs_per_query", ratio(float64(runtime1.mallocs-runtime0.mallocs), float64(all.queries)), "")
	o.set("replay.timed_inferences", float64(st.ps.inferred), "prefetch sets inferred during the timed phase")

	var disk, stalls uint64
	var buf, osc struct{ hits, misses uint64 }
	var prefetched, wasted uint64
	for _, rr := range ref.pythia {
		for _, q := range rr.Queries {
			disk += q.DiskReads
			stalls += q.WindowStalls
		}
		buf.hits += rr.Buffer.Hits
		buf.misses += rr.Buffer.Misses
		osc.hits += rr.OS.Hits
		osc.misses += rr.OS.Misses
		prefetched += rr.Buffer.PrefetchedIn
		wasted += rr.Buffer.PrefetchWasted
	}
	note := "Pythia path over the held-out pool"
	o.set("buffer.hit_ratio", ratio(float64(buf.hits), float64(buf.hits+buf.misses)), note)
	o.set("oscache.hit_ratio", ratio(float64(osc.hits), float64(osc.hits+osc.misses)), note)
	o.set("replay.disk_reads_per_query", ratio(float64(disk), float64(len(st.fx.eval))), note)
	o.set("replay.window_stalls", float64(stalls), note)
	o.set("replay.prefetch_wasted_ratio", ratio(float64(wasted), float64(prefetched)), note)

	var bodies [][]byte
	for _, round := range st.rounds {
		for _, inst := range round {
			body, err := encodeQuery(inst.Query)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
	}
	distinct, err := distinctRatio(st.fx, bodies)
	if err != nil {
		return nil, err
	}
	o.set("workload.distinct_ratio", distinct, fmt.Sprintf("distinct plan fingerprints over %d held-out queries", len(bodies)))
	if err := layerPass(st.fx, bodies[:min(w.layerSample, len(bodies))], p.tr, o); err != nil {
		return nil, err
	}
	setSpanMetrics(o, p.tr)
	return o, nil
}
