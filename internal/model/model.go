// Package model implements Pythia's multilabel classifier: a transformer
// encoder over the serialized query plan feeding a feed-forward decoder with
// one output per data block of a database object (paper §3.3, Figure 3).
//
// A Model owns one label space — a list of (object, page) labels. Pythia's
// standard configuration gives each database object its own model; large
// objects are split into page-range partitions with one model each; the
// Figure 12d ablation builds one combined model spanning an index and its
// base table; the Figure 12h ablation restricts the label space to the top-k
// most frequently accessed pages.
package model

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// Config sizes and trains a model. The paper's configuration is Dim 100,
// Heads 10, Layers 2, DecoderHidden 800; the experiment defaults are scaled
// down to train hundreds of models on CPU in seconds.
type Config struct {
	Dim           int
	Heads         int
	Layers        int
	FFHidden      int // defaults to 4×Dim
	DecoderHidden int
	Epochs        int
	LR            float64
	PosWeight     float64 // BCE positive-class weight (default 2)
	Threshold     float64 // sigmoid cutoff for predicting a page (default 0.5)
	Seed          uint64
	// Threads is the worker-shard count for the nn compute kernels: 0
	// selects the process default (PYTHIA_THREADS or NumCPU), 1 forces
	// serial execution, N shards kernels N ways. Training is bitwise
	// deterministic across all values — the kernels preserve the serial
	// floating-point accumulation order — so Threads is purely a speed
	// knob (asserted by TestTrainThreadsDeterminism).
	Threads int
}

// DefaultConfig returns the scaled-down training configuration used by the
// experiment harness.
func DefaultConfig() Config {
	return Config{
		Dim:           32,
		Heads:         4,
		Layers:        2,
		DecoderHidden: 64,
		Epochs:        50,
		LR:            1e-3,
		PosWeight:     5,
		Threshold:     0.5,
		Seed:          1,
	}
}

// PaperConfig returns the paper's full-size hyperparameters (§5.1).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Dim = 100
	c.Heads = 10
	c.DecoderHidden = 800
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Heads <= 0 {
		c.Heads = d.Heads
	}
	if c.Layers <= 0 {
		c.Layers = d.Layers
	}
	if c.DecoderHidden <= 0 {
		c.DecoderHidden = d.DecoderHidden
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	if c.PosWeight <= 0 {
		c.PosWeight = d.PosWeight
	}
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	return c
}

// Upper bounds Validate enforces. They sit far above any configuration this
// repository trains (the paper's is Dim 100, DecoderHidden 800); they exist
// so that a corrupted persisted configuration is rejected before it sizes
// an allocation or a worker count.
const (
	maxDim     = 1 << 12
	maxLayers  = 64
	maxHidden  = 1 << 16
	maxThreads = 1 << 10
	maxVocab   = 1 << 20
)

// Validate reports whether New can build c: no negative sizes, and, with
// defaults applied to zero fields, Dim divisible by Heads and every size
// within its upper bound.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Dim", c.Dim}, {"Heads", c.Heads}, {"Layers", c.Layers}, {"FFHidden", c.FFHidden},
		{"DecoderHidden", c.DecoderHidden}, {"Threads", c.Threads}} {
		if f.v < 0 {
			return fmt.Errorf("model: config %s %d is negative", f.name, f.v)
		}
	}
	c = c.withDefaults()
	switch {
	case c.Dim > maxDim:
		return fmt.Errorf("model: config Dim %d exceeds %d", c.Dim, maxDim)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("model: config Dim %d is not divisible by Heads %d", c.Dim, c.Heads)
	case c.Layers > maxLayers:
		return fmt.Errorf("model: config Layers %d exceeds %d", c.Layers, maxLayers)
	case c.FFHidden > maxHidden || c.DecoderHidden > maxHidden:
		return fmt.Errorf("model: config hidden widths %d/%d exceed %d", c.FFHidden, c.DecoderHidden, maxHidden)
	case c.Threads > maxThreads:
		return fmt.Errorf("model: config Threads %d exceeds %d", c.Threads, maxThreads)
	}
	return nil
}

// paramCount is the scalar parameter count New builds for a valid cfg, a
// vocabulary of vocab tokens and labels outputs, computed from the shapes
// alone (ParamCount of the built model, asserted by TestParamCountArithmetic).
func paramCount(cfg Config, vocab, labels int) int {
	cfg = cfg.withDefaults()
	d, ff, h := cfg.Dim, cfg.FFHidden, cfg.DecoderHidden
	if ff <= 0 {
		ff = 4 * d
	}
	layer := 4*(d*d+d) + // attention projections
		(d*ff + ff) + (ff*d + d) + // feed-forward block
		4*d // two layer norms
	return vocab*d + cfg.Layers*layer + (d*h + h) + (h*labels + labels)
}

// Sample is one training example: the encoded plan tokens and the pages the
// query accessed non-sequentially (any object; the model selects the subset
// in its own label space).
type Sample struct {
	TokenIDs []int
	Pages    []storage.PageID
}

// Model is one trained multilabel classifier over a fixed label space.
type Model struct {
	Labels []storage.PageID // label j ↔ Labels[j]

	cfg      Config
	labelIdx map[storage.PageID]int
	enc      *nn.Encoder
	dec      *nn.Decoder

	// rt carries the model's worker pool and scratch arena. The arena is
	// single-owner, so mu serializes Train/Predict/Scores on one model;
	// distinct models stay fully concurrent (the predictor's fan-out), and
	// the pools all share one process-wide worker set, so concurrent
	// models never oversubscribe the machine.
	rt nn.Runtime
	mu sync.Mutex

	// targetBuf is the reusable 0/1 target vector for training steps.
	targetBuf []float64
}

// New builds an untrained model over the label space for a vocabulary of
// vocabSize tokens. Labels must be non-empty.
func New(vocabSize int, labels []storage.PageID, cfg Config) *Model {
	if len(labels) == 0 {
		panic("model: empty label space")
	}
	cfg = cfg.withDefaults()
	r := sim.NewRand(cfg.Seed)
	m := &Model{
		Labels:   labels,
		cfg:      cfg,
		labelIdx: make(map[storage.PageID]int, len(labels)),
		enc: nn.NewEncoder(nn.EncoderConfig{
			Vocab: vocabSize, Dim: cfg.Dim, Heads: cfg.Heads,
			Layers: cfg.Layers, FFHidden: cfg.FFHidden,
		}, r),
	}
	m.dec = nn.NewDecoder("dec", cfg.Dim, cfg.DecoderHidden, len(labels), r)
	m.rt = nn.Runtime{Pool: nn.NewPool(cfg.Threads), Arena: nn.NewArena()}
	m.enc.SetRuntime(m.rt)
	m.dec.SetRuntime(m.rt)
	// Start every page logit clearly negative: almost all labels are 0 for
	// any one query, so beginning from "predict nothing" lets training
	// spend its gradient budget on the positives instead of first pushing
	// thousands of outputs below threshold.
	for i := range m.dec.L2.Bias.W.Data {
		m.dec.L2.Bias.W.Data[i] = -2
	}
	for i, l := range labels {
		m.labelIdx[l] = i
	}
	return m
}

// ParamCount returns the model's scalar parameter count ("model size").
func (m *Model) ParamCount() int {
	return nn.ParamCount(append(m.enc.Params(), m.dec.Params()...))
}

// targets fills the reusable 0/1 vector for a sample, ignoring pages
// outside the label space (they belong to other models or partitions).
func (m *Model) targets(pages []storage.PageID) []float64 {
	if m.targetBuf == nil {
		m.targetBuf = make([]float64, len(m.Labels))
	}
	t := m.targetBuf
	for i := range t {
		t[i] = 0
	}
	for _, p := range pages {
		if j, ok := m.labelIdx[p]; ok {
			t[j] = 1
		}
	}
	return t
}

// Train runs end-to-end training (encoder and decoder jointly, as in the
// paper) over the samples and returns the final mean epoch loss.
func (m *Model) Train(samples []Sample) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	params := append(m.enc.Params(), m.dec.Params()...)
	opt := nn.NewAdam(m.cfg.LR, params)
	opt.Clip = 5
	// Sum reduction keeps the gradient scale independent of the label-space
	// size, so models over large objects train as fast as small ones.
	bce := nn.BCEWithLogits{PosWeight: m.cfg.PosWeight, Sum: true, Scratch: m.rt.Arena}
	r := sim.NewRand(m.cfg.Seed ^ 0x5eed)

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var epochLoss float64
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for _, i := range order {
			s := samples[i]
			// Recycle the previous step's activations and scratch: after
			// the first step the forward/backward pass allocates nothing.
			m.rt.Arena.Release()
			opt.ZeroGrad()
			rep := m.enc.Forward(s.TokenIDs)
			logits := m.dec.Forward(rep)
			loss, dLogits := bce.Loss(logits, m.targets(s.Pages))
			epochLoss += loss
			dRep := m.dec.Backward(dLogits)
			m.enc.Backward(dRep)
			opt.Step()
		}
		if len(samples) > 0 {
			epochLoss /= float64(len(samples))
		}
	}
	return epochLoss
}

// Predict runs one-shot inference: the pages whose sigmoid probability
// crosses the threshold, in label (file-storage) order. Safe for
// concurrent callers (inference on one model is serialized; run distinct
// models concurrently for parallel inference, as the predictor does).
func (m *Model) Predict(tokenIDs []int) []storage.PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Arena.Release()
	logits := m.dec.Forward(m.enc.Infer(tokenIDs))
	var out []storage.PageID
	for j, x := range logits.Data {
		if nn.Sigmoid(x) >= m.cfg.Threshold {
			out = append(out, m.Labels[j])
		}
	}
	return out
}

// PredictBatch runs inference for several token sequences in one pass. The
// encoder handles each sequence independently (sequence lengths differ);
// at the served shapes it holds nearly all of a model's FLOPs, and the
// decoder only about 1–2%. The decoder sees all B representations as one
// B×Dim matrix, so its two matmuls run at batch width. Each decoder output
// row is computed with the same k-ascending accumulation order as the 1×Dim
// case, so results are bitwise identical to calling Predict per sequence
// (asserted by TestPredictBatchMatchesPredict). The serve tier does not use
// it — batching the decoder alone never paid for the wait to assemble a batch
// (DESIGN.md "Why there is no micro-batcher") — but the benchmark times it
// per row as model.batch_row_us.
func (m *Model) PredictBatch(seqs [][]int) [][]storage.PageID {
	out := make([][]storage.PageID, len(seqs))
	if len(seqs) == 0 {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Arena.Release()
	// Encode per sequence, gathering the 1×Dim representations into a B×Dim
	// matrix. reps is allocated before the encoder passes so the arena can
	// recycle their scratch without touching it.
	reps := m.rt.Arena.Get(len(seqs), m.cfg.Dim)
	for i, ids := range seqs {
		copy(reps.Row(i), m.enc.Infer(ids).Row(0))
	}
	logits := m.dec.Forward(reps)
	for i := range seqs {
		var pages []storage.PageID
		for j, x := range logits.Row(i) {
			if nn.Sigmoid(x) >= m.cfg.Threshold {
				pages = append(pages, m.Labels[j])
			}
		}
		out[i] = pages
	}
	return out
}

// Quantize switches the model's linear layers (attention projections, FFN,
// and decoder) to the int8 inference path. Irreversible and inference-only:
// Train on a quantized model panics in the first backward pass.
func (m *Model) Quantize() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.enc.Layers {
		l.Attn.Wq.Quantize()
		l.Attn.Wk.Quantize()
		l.Attn.Wv.Quantize()
		l.Attn.Wo.Quantize()
		l.FF.L1.Quantize()
		l.FF.L2.Quantize()
	}
	m.dec.L1.Quantize()
	m.dec.L2.Quantize()
}

// Scores returns the per-label probabilities (diagnostics and tests).
func (m *Model) Scores(tokenIDs []int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rt.Arena.Release()
	logits := m.dec.Forward(m.enc.Infer(tokenIDs))
	out := make([]float64, len(logits.Data))
	for i, x := range logits.Data {
		out[i] = nn.Sigmoid(x)
	}
	return out
}

// ObjectLabels builds the full label space of one object: every page.
func ObjectLabels(obj *storage.Object) []storage.PageID {
	out := make([]storage.PageID, obj.Pages)
	for i := range out {
		out[i] = storage.PageID{Object: obj.ID, Page: storage.PageNum(i)}
	}
	return out
}

// PartitionLabels splits an object's pages into partitions of at most
// maxPages each — "we split large tables into several smaller partitions and
// then train one model for each" (§3.3).
func PartitionLabels(obj *storage.Object, maxPages int) [][]storage.PageID {
	if maxPages <= 0 {
		return [][]storage.PageID{ObjectLabels(obj)}
	}
	var out [][]storage.PageID
	for start := 0; start < int(obj.Pages); start += maxPages {
		end := start + maxPages
		if end > int(obj.Pages) {
			end = int(obj.Pages)
		}
		part := make([]storage.PageID, 0, end-start)
		for p := start; p < end; p++ {
			part = append(part, storage.PageID{Object: obj.ID, Page: storage.PageNum(p)})
		}
		out = append(out, part)
	}
	return out
}

// TopKLabels restricts a label space to the k pages most frequently accessed
// across the training samples (Figure 12h). Ties break toward lower offsets
// for determinism.
func TopKLabels(samples []Sample, obj storage.ObjectID, k int) []storage.PageID {
	counts := make(map[storage.PageID]int)
	for _, s := range samples {
		for _, p := range s.Pages {
			if p.Object == obj {
				counts[p]++
			}
		}
	}
	all := make([]storage.PageID, 0, len(counts))
	for p := range counts {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool {
		if counts[all[i]] != counts[all[j]] {
			return counts[all[i]] > counts[all[j]]
		}
		return all[i].Less(all[j])
	})
	if k < len(all) {
		all = all[:k]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	return all
}

// CombinedLabels concatenates two objects' label spaces — the single
// index+table model of the Figure 12d ablation.
func CombinedLabels(objs ...*storage.Object) []storage.PageID {
	var out []storage.PageID
	for _, o := range objs {
		out = append(out, ObjectLabels(o)...)
	}
	return out
}
