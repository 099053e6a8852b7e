package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// fingerprintLoop is how many Fingerprint calls one span times: a single
// call takes less time than reading the clock.
const fingerprintLoop = 1000

// layerPass calls each layer's public functions directly, in the order a
// predict request reaches them, for a sample of request bodies: one span
// per call, the request's root span around them all. It records the
// layer metrics that are counts rather than times.
func layerPass(fx *fixture, bodies [][]byte, tr *tracer, o *outcome) error {
	seqs := map[*model.Model][][]int{} // each model's sampled token sequences
	var order []*model.Model
	var models, tokens, flops, weightBytes float64
	for i, body := range bodies {
		req := int64(i)
		root := tr.begin("layer.request", 0, req)
		sp := tr.begin("spec.decode", root, req)
		qs, err := spec.Decode(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		q, err := qs.ToQuery()
		tr.end(sp, 1)
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		sp = tr.begin("plan.plan", root, req)
		pl, err := plan.NewPlanner(fx.gen.DB()).Plan(q)
		tr.end(sp, 1)
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		tw := fx.sys.Lookup(q)
		if tw == nil {
			return fmt.Errorf("layer pass: query %d matches no trained workload", i)
		}
		sp = tr.begin("predictor.encode", root, req)
		ids := tw.Pred.EncodePlan(pl)
		tr.end(sp, 1)
		sp = tr.begin("predictor.fingerprint", root, req)
		for k := 0; k < fingerprintLoop; k++ {
			predictor.Fingerprint(ids)
		}
		tr.end(sp, fingerprintLoop)
		sp = tr.begin("predictor.predict", root, req)
		tw.Pred.PredictParallel(pl)
		tr.end(sp, 1)
		ms := planModels(tw.Pred.Models(), pl)
		for _, m := range ms {
			sp = tr.begin("model.forward", root, req)
			m.Predict(ids)
			tr.end(sp, 1)
			if _, ok := seqs[m]; !ok {
				order = append(order, m)
			}
			seqs[m] = append(seqs[m], ids)
			f, b := forwardCost(fx.shape, len(ids), len(m.Labels))
			flops += f
			weightBytes += b
		}
		sp = tr.begin("pythia.prefetch", root, req)
		fx.sys.Prefetch(&workload.Instance{Query: q, Plan: pl})
		tr.end(sp, 1)
		tr.end(root, 1)
		models += float64(len(ms))
		tokens += float64(len(ids))
	}
	// One batched pass per model over every sampled plan that uses it.
	for _, m := range order {
		sp := tr.begin("model.predict_batch", 0, 0)
		m.PredictBatch(seqs[m])
		tr.end(sp, len(seqs[m]))
	}
	n := float64(len(bodies))
	o.set("predictor.models_per_plan", ratio(models, n), fmt.Sprintf("%d sampled plans", len(bodies)))
	o.set("predictor.tokens_per_plan", ratio(tokens, n), "")
	o.set("nn.flops_per_plan", ratio(flops, n), "computed from model shapes and token counts")
	o.set("nn.weight_bytes_per_plan", ratio(weightBytes, n), "computed from model shapes")
	return nil
}

// planModels returns the models a plan's prediction runs: those covering
// an object the plan scans through an index (its index and base table),
// the predictor's rule for one model per object.
func planModels(all []*model.Model, root *plan.Node) []*model.Model {
	relevant := map[storage.ObjectID]bool{}
	root.Walk(func(n *plan.Node) {
		if n.Kind != plan.KindIndexScan {
			return
		}
		if n.Index != nil {
			relevant[n.Index.Tree.Object().ID] = true
		}
		if n.Rel != nil {
			relevant[n.Rel.Heap.ID] = true
		}
	})
	var out []*model.Model
	for _, m := range all {
		for _, l := range m.Labels {
			if relevant[l.Object] {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// forwardCost returns the multiply-add flops (two per multiply-add) and
// the weight bytes one single-row forward pass of one model touches over
// t tokens: each encoder layer's four attention projections, its
// attention scores and weighted sum, and its feed-forward block, then the
// decoder's two layers. Embedding lookups, layer norms and softmax are
// left out.
func forwardCost(c model.Config, t, labels int) (flops, weightBytes float64) {
	d, h := float64(c.Dim), float64(c.DecoderHidden)
	ff := float64(c.FFHidden)
	if ff == 0 {
		ff = 4 * d
	}
	tt := float64(t)
	perLayer := 4*tt*d*d + 2*tt*tt*d + 2*tt*d*ff
	decoder := d*h + h*float64(labels)
	flops = 2 * (float64(c.Layers)*perLayer + decoder)
	weights := float64(c.Layers)*(4*d*d+2*d*ff) + decoder
	return flops, 8 * weights // float64 weights
}

// setSpanMetrics derives the per-layer timings from the recorded spans:
// the median per-call self time of each layer, or a sum for set-up work.
func setSpanMetrics(o *outcome, tr *tracer) {
	t := layerTimes(tr.snapshot())
	o.set("spec.decode_us", medianOf(t, "spec.decode", time.Microsecond), "spec.Decode + ToQuery")
	o.set("plan.plan_us", medianOf(t, "plan.plan", time.Microsecond), "Planner.Plan")
	o.set("predictor.encode_us", medianOf(t, "predictor.encode", time.Microsecond), "Predictor.EncodePlan")
	o.set("predictor.fingerprint_ns", medianOf(t, "predictor.fingerprint", time.Nanosecond), "predictor.Fingerprint")
	o.set("predictor.predict_ms", medianOf(t, "predictor.predict", time.Millisecond), "Predictor.PredictParallel")
	o.set("model.forward_us", medianOf(t, "model.forward", time.Microsecond), "Model.Predict")
	o.set("model.batch_row_us", medianOf(t, "model.predict_batch", time.Microsecond), "Model.PredictBatch, per row")
	o.set("pythia.prefetch_ms", medianOf(t, "pythia.prefetch", time.Millisecond), "System.Prefetch")
	o.set("pythia.train_s", sumOf(t, "pythia.train"), "System.Train")
	o.set("workload.build_s", sumOf(t, "workload.build"), "Generator.Workload, training set and inputs")
	o.set("replay.default_pass_s", medianOf(t, "replay.default_pass", time.Second), "System.Run, default path, per round")
	o.set("replay.pythia_pass_s", medianOf(t, "replay.pythia_pass", time.Second), "System.Run, Pythia path, per round")
	predictS := o.values["predictor.predict_ms"] / 1000
	o.set("nn.gflops", ratio(o.values["nn.flops_per_plan"], predictS)/1e9, "computed flops / predictor.predict_ms")
}

// serveStats is the part of /stats the benchmark reads.
type serveStats struct {
	Shed      uint64            `json:"requests_shed"`
	Failovers uint64            `json:"replica_failovers"`
	Events    map[string]uint64 `json:"events"`
	Replicas  []struct {
		Served      uint64 `json:"served"`
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
		Batches     uint64 `json:"batches"`
		BatchedReqs uint64 `json:"batched_requests"`
	} `json:"replicas"`
	Quality struct {
		Scored    uint64  `json:"scored"`
		Precision float64 `json:"precision"`
	} `json:"quality"`
	Drift struct {
		State string `json:"state"`
	} `json:"drift"`
}

func (st *stack) scrape() (*serveStats, error) {
	resp, err := st.client.Get(st.base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	defer resp.Body.Close()
	var s serveStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	return &s, nil
}

// setServeStats records the server's own counters over the measured
// phase, as differences of two /stats reads.
func setServeStats(o *outcome, before, after *serveStats, predicts int64) {
	var hits, misses, batches, batched float64
	skewMax, skewMin := 0.0, -1.0
	for i, r := range after.Replicas {
		b := before.Replicas[i]
		hits += float64(r.CacheHits - b.CacheHits)
		misses += float64(r.CacheMisses - b.CacheMisses)
		batches += float64(r.Batches - b.Batches)
		batched += float64(r.BatchedReqs - b.BatchedReqs)
		served := float64(r.Served - b.Served)
		skewMax = max(skewMax, served)
		if skewMin < 0 || served < skewMin {
			skewMin = served
		}
	}
	runs := float64(after.Events["inference_run"] - before.Events["inference_run"])
	batchedRuns := float64(after.Events["inference_batched"] - before.Events["inference_batched"])
	o.set("serve.cache_hit_ratio", ratio(hits, hits+misses), fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	o.set("serve.inferences_per_request", ratio(runs, float64(predicts)), fmt.Sprintf("%.0f inferences", runs))
	o.set("serve.batched_ratio", ratio(batchedRuns, runs), "")
	o.set("serve.mean_batch_size", ratio(batched, batches), fmt.Sprintf("%.0f batches", batches))
	o.set("serve.replica_skew", ratio(skewMax, skewMin), fmt.Sprintf("%d replicas, max/min served", len(after.Replicas)))
	o.set("serve.sheds", float64(after.Shed-before.Shed), "")
	o.set("serve.failovers", float64(after.Failovers-before.Failovers), "")
	o.set("quality.window_precision", after.Quality.Precision, "server feedback window")
	level := 0
	for l := quality.DriftOK; l <= quality.DriftAlarm; l++ {
		if l.String() == after.Drift.State {
			level = l.Value()
		}
	}
	o.set("quality.drift_level", float64(level), "drift state "+after.Drift.State+" (0 ok, 1 warning, 2 alarm)")
}

// notExercised sets metrics of layers a workload does not run to 0.
func notExercised(o *outcome, names ...string) {
	for _, n := range names {
		o.set(n, 0, "not exercised by this workload")
	}
}

func setServeAbsent(o *outcome) {
	notExercised(o, "serve.infer_ms_p50", "serve.overhead_ms_p50", "serve.feedback_ms_p50",
		"serve.cache_hit_ratio", "serve.inferences_per_request", "serve.batched_ratio",
		"serve.mean_batch_size", "serve.replica_skew", "serve.sheds", "serve.failovers",
		"quality.feedback_scored", "quality.window_precision", "quality.drift_level")
}

func setReplayAbsent(o *outcome) {
	notExercised(o, "replay.default_pass_s", "replay.pythia_pass_s", "replay.requests_per_s", "replay.allocs_per_query", "replay.disk_reads_per_query",
		"replay.window_stalls", "replay.prefetch_wasted_ratio", "replay.timed_inferences",
		"buffer.hit_ratio", "oscache.hit_ratio")
}
