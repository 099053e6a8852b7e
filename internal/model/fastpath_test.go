package model

import (
	"reflect"
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

// TestPredictBatchMatchesPredict: batching is a pure execution-shape change
// — every sequence's prediction set must equal the single-shot path exactly
// (the batched decoder preserves the serial accumulation order per row).
func TestPredictBatchMatchesPredict(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)

	seqs := [][]int{{2, 5, 3}, {2, 9, 3}, {2, 5, 3}, {2, 9, 3, 3}}
	want := make([][]storage.PageID, len(seqs))
	for i, s := range seqs {
		want[i] = m.Predict(s)
	}
	got := m.PredictBatch(seqs)
	if len(got) != len(seqs) {
		t.Fatalf("PredictBatch returned %d results for %d sequences", len(got), len(seqs))
	}
	for i := range seqs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sequence %d: batch %v vs single %v", i, got[i], want[i])
		}
	}
	// Empty and single-element batches are valid.
	if r := m.PredictBatch(nil); len(r) != 0 {
		t.Fatalf("empty batch returned %v", r)
	}
	one := m.PredictBatch([][]int{{2, 5, 3}})
	if !reflect.DeepEqual(one[0], want[0]) {
		t.Fatalf("singleton batch %v vs single %v", one[0], want[0])
	}
}

// setAgreement is the Jaccard similarity of two prediction sets (1 when
// both are empty: agreeing on "prefetch nothing" is agreement).
func setAgreement(a, b []storage.PageID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	in := map[storage.PageID]bool{}
	for _, p := range a {
		in[p] = true
	}
	inter := 0
	union := len(a)
	for _, p := range b {
		if in[p] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// quantAgreementBudget is the pinned accuracy budget for int8 inference:
// the mean Jaccard agreement between float and quantized prediction sets on
// the seed workload must not drop below this. Per-tensor symmetric int8
// perturbs logits by well under the sigmoid-threshold margin of a trained
// model, so in practice agreement is 1.0; the budget leaves room only for
// borderline labels sitting exactly at the threshold.
const quantAgreementBudget = 0.9

// TestQuantizedParityAgreement trains two identical models (training is
// deterministic, so their weights are bitwise equal), quantizes one, and
// pins the prediction-set agreement.
func TestQuantizedParityAgreement(t *testing.T) {
	labels, samples := trainingFixture()
	fm := New(12, labels, smallCfg())
	qm := New(12, labels, smallCfg())
	fm.Train(samples)
	qm.Train(samples)
	qm.Quantize()

	queries := [][]int{{2, 5, 3}, {2, 9, 3}, {2, 5, 3, 3}, {2, 9}}
	total := 0.0
	for _, q := range queries {
		total += setAgreement(fm.Predict(q), qm.Predict(q))
	}
	if mean := total / float64(len(queries)); mean < quantAgreementBudget {
		t.Fatalf("quantized agreement %.3f below pinned budget %.2f", mean, quantAgreementBudget)
	}
}

// TestQuantizedBatchMatchesSingle: the two fast-path stages compose — a
// quantized model's batched predictions equal its single-shot ones (integer
// accumulation is exact, so this holds bitwise too).
func TestQuantizedBatchMatchesSingle(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)
	m.Quantize()
	seqs := [][]int{{2, 5, 3}, {2, 9, 3}}
	got := m.PredictBatch(seqs)
	for i, s := range seqs {
		if want := m.Predict(s); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("sequence %d: quantized batch %v vs single %v", i, got[i], want)
		}
	}
}

// TestQuantizedTrainPanics: quantization is an inference-only commitment —
// the first backward pass must refuse loudly, not silently corrupt weights.
func TestQuantizedTrainPanics(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Quantize()
	defer func() {
		if recover() == nil {
			t.Fatal("Train on quantized model did not panic")
		}
	}()
	m.Train(samples)
}

// benchModel builds an untrained paper-scale model (inference cost does not
// depend on the weights' values, only their shapes).
func benchModel(quantize bool) (*Model, []int) {
	cfg := DefaultConfig()
	cfg.Dim = 64
	cfg.Heads = 8
	cfg.Layers = 2
	cfg.DecoderHidden = 512
	labels := make([]storage.PageID, 4000)
	for i := range labels {
		labels[i] = pg(1, uint32(i))
	}
	m := New(64, labels, cfg)
	if quantize {
		m.Quantize()
	}
	seq := make([]int, 24)
	for i := range seq {
		seq[i] = i % 64
	}
	return m, seq
}

func BenchmarkInferFloat32(b *testing.B) {
	m, seq := benchModel(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(seq)
	}
}

func BenchmarkInferInt8(b *testing.B) {
	m, seq := benchModel(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(seq)
	}
}

// BenchmarkInferServeShape measures one Predict at the shapes the server
// runs: DefaultConfig (Dim 32, 4 heads, 2 layers, decoder hidden 64), a
// label space of a few hundred pages and a 56-token plan, the longest of
// the served templates. float and int8 run side by side so their ratio at
// these shapes can be read off one run; float-threads1 pins the kernels to
// one shard, so comparing it with float at -cpu 2 shows what sharding these
// small matrices buys.
func BenchmarkInferServeShape(b *testing.B) {
	labels := make([]storage.PageID, 300)
	for i := range labels {
		labels[i] = pg(1, uint32(i))
	}
	seq := make([]int, 56)
	for i := range seq {
		seq[i] = i % 64
	}
	for _, c := range []struct {
		name     string
		threads  int
		quantize bool
	}{{"float", 0, false}, {"float-threads1", 1, false}, {"int8", 0, true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Threads = c.threads
			m := New(64, labels, cfg)
			if c.quantize {
				m.Quantize()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = m.Predict(seq)
			}
		})
	}
}

// benchSink keeps the benchmarked Predict calls from being optimised away.
var benchSink []storage.PageID
