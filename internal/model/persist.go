package model

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/storage"
)

// persistedModel is the on-disk form of a trained Model. It stores the
// architecture configuration, the label space, and a name→weights snapshot;
// loading rebuilds the identical architecture and restores the weights, so a
// loaded model predicts exactly what the saved one did.
type persistedModel struct {
	Version   int
	Cfg       Config
	VocabSize int
	Labels    []storage.PageID
	Weights   map[string][]float64
}

const persistVersion = 1

// Save writes the model to w (encoding/gob).
func (m *Model) Save(w io.Writer) error {
	state := persistedModel{
		Version:   persistVersion,
		Cfg:       m.cfg,
		VocabSize: m.enc.Emb.V,
		Labels:    m.Labels,
		Weights:   nn.Snapshot(append(m.enc.Params(), m.dec.Params()...)),
	}
	return gob.NewEncoder(w).Encode(&state)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var state persistedModel
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("model: decoding persisted model: %w", err)
	}
	if state.Version != persistVersion {
		return nil, fmt.Errorf("model: unsupported persisted version %d", state.Version)
	}
	if len(state.Labels) == 0 {
		return nil, fmt.Errorf("model: persisted model has empty label space")
	}
	// Check the architecture against the payload before New allocates it:
	// a corrupted config must fail here, not panic in a constructor or
	// size an allocation the snapshot's weights cannot fill.
	if state.VocabSize < 1 || state.VocabSize > maxVocab {
		return nil, fmt.Errorf("model: persisted vocabulary size %d outside [1, %d]", state.VocabSize, maxVocab)
	}
	if err := state.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("model: persisted config: %w", err)
	}
	stored := 0
	for _, w := range state.Weights {
		stored += len(w)
	}
	if want := paramCount(state.Cfg, state.VocabSize, len(state.Labels)); stored != want {
		return nil, fmt.Errorf("model: persisted model has %d weights, its config needs %d", stored, want)
	}
	m := New(state.VocabSize, state.Labels, state.Cfg)
	if err := nn.Restore(append(m.enc.Params(), m.dec.Params()...), state.Weights); err != nil {
		return nil, fmt.Errorf("model: restoring weights: %w", err)
	}
	return m, nil
}

// TrainIncremental continues training an existing (possibly loaded) model on
// additional samples for the given number of epochs — the paper's
// incremental-training observation: "every new query run can be used as a
// new training data point to improve Pythia models" (§5.3). A fresh
// optimizer is used; pages outside the model's label space are ignored as
// usual.
func (m *Model) TrainIncremental(samples []Sample, epochs int) float64 {
	if epochs <= 0 {
		epochs = m.cfg.Epochs / 4
		if epochs < 1 {
			epochs = 1
		}
	}
	saved := m.cfg.Epochs
	m.cfg.Epochs = epochs
	defer func() { m.cfg.Epochs = saved }()
	return m.Train(samples)
}
