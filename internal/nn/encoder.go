package nn

import "github.com/pythia-db/pythia/internal/sim"

// FFN is the transformer's position-wise feed-forward block:
// Linear → ReLU → Linear.
type FFN struct {
	L1, L2 *Linear
	relu   ReLU
}

// SetRuntime binds execution resources for the block.
func (f *FFN) SetRuntime(rt Runtime) {
	f.L1.SetRuntime(rt)
	f.L2.SetRuntime(rt)
	f.relu.SetRuntime(rt)
}

// NewFFN builds the block with the given hidden width.
func NewFFN(name string, d, hidden int, r *sim.Rand) *FFN {
	return &FFN{
		L1: NewLinear(name+".ffn1", d, hidden, r),
		L2: NewLinear(name+".ffn2", hidden, d, r),
	}
}

// Params returns both linear layers' parameters.
func (f *FFN) Params() []*Param {
	return append(f.L1.Params(), f.L2.Params()...)
}

// Forward applies the block.
func (f *FFN) Forward(x *Mat) *Mat {
	return f.L2.Forward(f.relu.Forward(f.L1.Forward(x)))
}

// Backward returns dX.
func (f *FFN) Backward(dy *Mat) *Mat {
	return f.L1.Backward(f.relu.Backward(f.L2.Backward(dy)))
}

// EncoderLayer is one post-norm transformer encoder layer:
// x ← LN1(x + MHSA(x)); x ← LN2(x + FFN(x)).
type EncoderLayer struct {
	Attn *MHSA
	FF   *FFN
	LN1  *LayerNorm
	LN2  *LayerNorm

	rt Runtime
}

// SetRuntime binds execution resources for the layer and its blocks.
func (e *EncoderLayer) SetRuntime(rt Runtime) {
	e.rt = rt
	e.Attn.SetRuntime(rt)
	e.FF.SetRuntime(rt)
	e.LN1.SetRuntime(rt)
	e.LN2.SetRuntime(rt)
}

// NewEncoderLayer builds one layer.
func NewEncoderLayer(name string, d, heads, ffHidden int, r *sim.Rand) *EncoderLayer {
	return &EncoderLayer{
		Attn: NewMHSA(name+".attn", d, heads, r),
		FF:   NewFFN(name, d, ffHidden, r),
		LN1:  NewLayerNorm(name+".ln1", d),
		LN2:  NewLayerNorm(name+".ln2", d),
	}
}

// Params returns all the layer's parameters.
func (e *EncoderLayer) Params() []*Param {
	var out []*Param
	out = append(out, e.Attn.Params()...)
	out = append(out, e.FF.Params()...)
	out = append(out, e.LN1.Params()...)
	out = append(out, e.LN2.Params()...)
	return out
}

// Forward runs the layer over an n×D sequence and returns the output rows
// [first, n). The attention block still reads every row of x; the residual
// adds, layer norms and feed-forward block are row-local, so they run on
// the returned rows only. Training passes first = 0.
func (e *EncoderLayer) Forward(x *Mat, first int) *Mat {
	h := e.LN1.Forward(e.rt.add(e.rt.rowsFrom(x, first), e.Attn.Forward(x, first)))
	return e.LN2.Forward(e.rt.add(h, e.FF.Forward(h)))
}

// Backward returns dX.
func (e *EncoderLayer) Backward(dy *Mat) *Mat {
	d2 := e.LN2.Backward(dy)
	dh := e.rt.add(d2, e.FF.Backward(d2))
	d1 := e.LN1.Backward(dh)
	return e.rt.add(d1, e.Attn.Backward(d1))
}

// Encoder is Pythia's query encoder: token embedding + sinusoidal positions,
// a stack of encoder layers, and the *last token's* embedding as the query
// representation ("we use ... finally the last token's embedding as the
// final query representation", paper §3.3).
type Encoder struct {
	Emb    *Embedding
	Layers []*EncoderLayer
	D      int

	rt  Runtime
	pos posTable

	// lastSeqLen is the length of the sequence the last full Forward
	// encoded; 0 after Infer, whose pruned graph Backward cannot walk.
	lastSeqLen int
}

// SetRuntime binds the worker pool and scratch arena the encoder computes
// with; it propagates to every layer. Call once after construction (and
// before any concurrent use).
func (e *Encoder) SetRuntime(rt Runtime) {
	e.rt = rt
	e.Emb.SetRuntime(rt)
	for _, l := range e.Layers {
		l.SetRuntime(rt)
	}
}

// EncoderConfig sizes the encoder. The paper's configuration is Dim 100,
// Heads 10, Layers 2.
type EncoderConfig struct {
	Vocab    int
	Dim      int
	Heads    int
	Layers   int
	FFHidden int // defaults to 4×Dim
}

// NewEncoder builds the encoder.
func NewEncoder(cfg EncoderConfig, r *sim.Rand) *Encoder {
	if cfg.FFHidden <= 0 {
		cfg.FFHidden = 4 * cfg.Dim
	}
	enc := &Encoder{
		Emb: NewEmbedding("enc", cfg.Vocab, cfg.Dim, r),
		D:   cfg.Dim,
	}
	for i := 0; i < cfg.Layers; i++ {
		enc.Layers = append(enc.Layers, NewEncoderLayer("enc.l"+string(rune('0'+i)), cfg.Dim, cfg.Heads, cfg.FFHidden, r))
	}
	return enc
}

// Params returns every parameter in the encoder.
func (e *Encoder) Params() []*Param {
	out := append([]*Param{}, e.Emb.Params()...)
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward encodes a token-id sequence into a 1×D query representation,
// keeping every layer's activations for Backward (the training path).
func (e *Encoder) Forward(ids []int) *Mat {
	out := e.forward(ids, false)
	e.lastSeqLen = len(ids)
	return out
}

// Infer returns exactly what Forward does, bitwise, computing only what the
// returned row depends on: every layer but the last runs in full, while the
// last computes keys and values for all rows but queries, attention output,
// residuals, layer norms and the feed-forward block for the final row only.
// Backward must not follow Infer.
func (e *Encoder) Infer(ids []int) *Mat {
	e.lastSeqLen = 0
	return e.forward(ids, true)
}

func (e *Encoder) forward(ids []int, lastOnly bool) *Mat {
	if len(ids) == 0 {
		panic("nn: encoding empty sequence")
	}
	x := e.Emb.Forward(ids)
	e.pos.add(x)
	for i, l := range e.Layers {
		first := 0
		if lastOnly && i == len(e.Layers)-1 {
			first = x.Rows - 1
		}
		x = l.Forward(x, first)
	}
	out := e.rt.get(1, e.D)
	copy(out.Row(0), x.Row(x.Rows-1))
	return out
}

// Backward propagates the 1×D representation gradient back through the
// stack into the embedding table.
func (e *Encoder) Backward(dRep *Mat) {
	if e.lastSeqLen == 0 {
		panic("nn: Encoder.Backward without a preceding Forward (Infer keeps no training graph)")
	}
	dx := e.rt.get(e.lastSeqLen, e.D)
	copy(dx.Row(e.lastSeqLen-1), dRep.Row(0))
	for i := len(e.Layers) - 1; i >= 0; i-- {
		dx = e.Layers[i].Backward(dx)
	}
	e.Emb.Backward(dx)
}
